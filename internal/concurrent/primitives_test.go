package concurrent

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLatchesGrowKeepsLatches: growth copies the pointer table, never the
// latches, so a latch handed out before four goroutines grow the table
// concurrently is still the latch for its address afterwards, and every
// address a grower saw keeps the latch it saw.
func TestLatchesGrowKeepsLatches(t *testing.T) {
	l := NewLatches(8)
	early := l.Latch(3)
	const n = 4096
	seen := make([]*sync.RWMutex, n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for a := g; a < n; a += 4 {
				seen[a] = l.Latch(int32(a))
			}
		}(g)
	}
	wg.Wait()
	if l.Latch(3) != early {
		t.Fatal("growth replaced a latch handed out before it")
	}
	for a, mu := range seen {
		if mu == nil || l.Latch(int32(a)) != mu {
			t.Fatalf("address %d: latch changed after growth", a)
		}
	}
}

// TestLockPair: two addresses are both held until the unlock, in either
// argument order; equal addresses lock once, so one unlock frees them.
func TestLockPair(t *testing.T) {
	l := NewLatches(8)
	unlock := l.LockPair(5, 2)
	if l.Latch(2).TryLock() || l.Latch(5).TryLock() {
		t.Fatal("LockPair(5, 2) left a latch free")
	}
	unlock()
	unlock = l.LockPair(3, 3)
	if l.Latch(3).TryLock() {
		t.Fatal("LockPair(3, 3) left the latch free")
	}
	unlock()
	for _, a := range []int32{2, 3, 5} {
		if !l.Latch(a).TryLock() {
			t.Fatalf("latch %d still held after unlock", a)
		}
	}
}

func TestSortKeys(t *testing.T) {
	got := SortKeys([]int{7, 3, 64, 3, 0, 7, 7})
	if want := []int{0, 3, 7, 64}; !slices.Equal(got, want) {
		t.Fatalf("SortKeys = %v, want %v", got, want)
	}
}

// TestFanOut: every index runs exactly once, whatever the worker count.
func TestFanOut(t *testing.T) {
	for _, n := range []int{0, 1, 1000} {
		for _, workers := range []int{1, 2, 8} {
			runs := make([]atomic.Int32, n)
			FanOut(n, workers, func(i int) { runs[i].Add(1) })
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}
