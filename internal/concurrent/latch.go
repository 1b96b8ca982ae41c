package concurrent

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Latches is the engine's per-bucket latch table: one RW latch per bucket
// address, growable without blocking readers. Lookup is a single atomic
// load of the table pointer; growth copies the pointer slice (never the
// latches themselves, so a latch handed out before a growth stays valid)
// and publishes the longer table atomically.
type Latches struct {
	mu  sync.Mutex // serializes growth
	tab atomic.Pointer[[]*sync.RWMutex]
}

// NewLatches returns a table covering bucket addresses [0, n).
func NewLatches(n int32) *Latches {
	l := &Latches{}
	l.Grow(n)
	return l
}

// Latch returns the latch for bucket address addr, growing the table if
// addr is beyond it.
func (l *Latches) Latch(addr int32) *sync.RWMutex {
	tab := *l.tab.Load()
	if int(addr) < len(tab) {
		return tab[addr]
	}
	l.Grow(addr + 1)
	return (*l.tab.Load())[addr]
}

// Grow extends the table to cover at least n addresses. It must complete
// before an address >= the old length is published to concurrent readers
// (Mirror.TraceSetPtr enforces this for trie publication).
func (l *Latches) Grow(n int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var cur []*sync.RWMutex
	if p := l.tab.Load(); p != nil {
		cur = *p
	}
	if int(n) <= len(cur) {
		return
	}
	want := 2 * len(cur)
	if want < int(n) {
		want = int(n)
	}
	if want < 8 {
		want = 8
	}
	nt := make([]*sync.RWMutex, want)
	copy(nt, cur)
	for i := len(cur); i < want; i++ {
		nt[i] = new(sync.RWMutex)
	}
	l.tab.Store(&nt)
}

// LockPair write-locks the latches of two bucket addresses in ascending
// address order — the engine's sole sanctioned two-latch acquisition,
// used by guarded merging — and returns the matching unlock. Equal
// addresses lock once.
func (l *Latches) LockPair(a, b int32) func() {
	if a == b {
		mu := l.Latch(a)
		mu.Lock()
		return mu.Unlock
	}
	if a > b {
		a, b = b, a
	}
	lo := l.Latch(a)
	hi := l.Latch(b)
	lo.Lock()
	hi.Lock()
	return func() {
		hi.Unlock()
		lo.Unlock()
	}
}

// fanActive counts the extra fan-out goroutines currently running across
// every FanOut call in the process, so concurrent batch callers share one
// CPU budget instead of multiplying their worker counts — eight client
// goroutines each fanning out GOMAXPROCS workers on a small host is pure
// scheduler churn (the BENCH_write.json putbatch regression).
var fanActive atomic.Int32

// fanBudget is the number of fan-out goroutines worth having runnable at
// once: the scheduler can execute at most min(GOMAXPROCS, NumCPU) of them,
// so spawning more only adds context switches.
func fanBudget() int {
	b := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < b {
		b = c
	}
	return b
}

// FanOut runs fn(i) for every i in [0, n) and returns when all calls have
// finished. It is the bounded work distributor shared by the batch paths
// and the parallel bulk loader. The caller's goroutine always works; up to
// workers-1 extra goroutines join it, further capped by the process-wide
// budget of min(GOMAXPROCS, NumCPU) runnable fan-out workers — on a
// single-CPU host every FanOut degenerates to an inline loop, which is
// exactly as fast as the scheduler could make it anyway.
func FanOut(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	extra := workers - 1
	if avail := fanBudget() - 1 - int(fanActive.Load()); extra > avail {
		extra = avail
	}
	if extra <= 0 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	fanActive.Add(int32(extra))
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(extra)
	for w := 0; w < extra; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		fn(i)
	}
	wg.Wait()
	fanActive.Add(int32(-extra))
}
