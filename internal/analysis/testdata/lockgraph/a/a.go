// Package a exercises the lockorder golden cases on a miniature of the
// concurrent layer: per-bucket latches, a structural lock, shard locks in
// front of a Store.
package a

import "sync"

type Bucket struct{ n int }

type Store interface {
	Read(addr int32) (*Bucket, error)
	Lookup(addr int32, key string) ([]byte, bool, error)
	Write(addr int32, b *Bucket) error
}

type lbucket struct {
	mu sync.RWMutex
	n  int
}

type File struct {
	structural sync.Mutex
	trieMu     sync.RWMutex
	stripes    Stripes
	buckets    []*lbucket
}

// Stripes is the miniature subtree stripe table: the analyzer recognizes
// it by type name, like the real concurrent.Stripes.
type Stripes struct {
	mus [4]sync.Mutex
}

func (s *Stripes) Lock(k int)   { s.mus[k].Lock() }
func (s *Stripes) Unlock(k int) { s.mus[k].Unlock() }

// Acquire is the sanctioned ascending multi-stripe site, recognized by
// name: single-stripe Lock calls inside it are fine.
func (s *Stripes) Acquire(ks ...int) func() {
	for _, k := range ks {
		s.Lock(k)
	}
	return func() {
		for i := len(ks) - 1; i >= 0; i-- {
			s.Unlock(ks[i])
		}
	}
}

// twoLatches holds a second bucket latch while the first is still held —
// the lock-order cycle the batch path's ascending-address discipline
// exists to prevent.
func (f *File) twoLatches(i, j int) int {
	a := f.buckets[i]
	b := f.buckets[j]
	a.mu.Lock()
	b.mu.Lock() // want `bucket latch b\.mu acquired while a\.mu is held`
	n := a.n + b.n
	b.mu.Unlock()
	a.mu.Unlock()
	return n
}

// structuralThenLatch is the sanctioned order: the coarse structural lock
// (a receiver field) plus at most one latch.
func (f *File) structuralThenLatch(i int) {
	f.structural.Lock()
	defer f.structural.Unlock()
	lb := f.buckets[i]
	lb.mu.Lock()
	lb.n++
	lb.mu.Unlock()
}

// oneAtATime releases each latch before taking the next.
func (f *File) oneAtATime(i, j int) {
	a := f.buckets[i]
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
	b := f.buckets[j]
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// retryLoop mirrors the Get retry discipline: latch, validate, release on
// mismatch, retry — never two latches at once.
func (f *File) retryLoop(i int) int {
	for {
		lb := f.buckets[i]
		lb.mu.RLock()
		if lb.n < 0 {
			lb.mu.RUnlock()
			continue
		}
		n := lb.n
		lb.mu.RUnlock()
		return n
	}
}

// mapLatch latches inside map iteration: map order is not ascending, so
// this silently breaks the ordering argument.
func (f *File) mapLatch(groups map[int32][]int) int {
	total := 0
	for addr := range groups {
		lb := f.buckets[addr]
		lb.mu.RLock() // want `lb\.mu acquired inside iteration over a map`
		total += lb.n
		lb.mu.RUnlock()
	}
	return total
}

// sortedLatch visits a pre-sorted slice of addresses — the partition
// discipline — and is fine.
func (f *File) sortedLatch(addrs []int32) int {
	total := 0
	for _, addr := range addrs {
		lb := f.buckets[addr]
		lb.mu.RLock()
		total += lb.n
		lb.mu.RUnlock()
	}
	return total
}

type shard struct {
	mu     sync.RWMutex
	byAddr map[int32]*Bucket
}

// fillUnderLatch reads the backing store while the shard latch is held:
// one slow disk read would stall every hit on the shard.
func fillUnderLatch(sh *shard, st Store, addr int32) (*Bucket, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return st.Read(addr) // want `store I/O st\.Read while shard latch sh\.mu is held`
}

// lookupUnderLatch serves a pool miss by searching the store's page while
// the shard latch is held: a point lookup is store I/O like a fill.
func lookupUnderLatch(sh *shard, st Store, addr int32, key string) ([]byte, bool, error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if _, ok := sh.byAddr[addr]; ok {
		return nil, true, nil
	}
	return st.Lookup(addr, key) // want `store I/O st\.Lookup while shard latch sh\.mu is held`
}

// lookupOutsideLatch is the pool's real miss path: the shard is consulted
// under the latch and the store searched after releasing it.
func lookupOutsideLatch(sh *shard, st Store, addr int32, key string) ([]byte, bool, error) {
	sh.mu.RLock()
	_, ok := sh.byAddr[addr]
	sh.mu.RUnlock()
	if ok {
		return nil, true, nil
	}
	return st.Lookup(addr, key)
}

// fillOutsideLatch is the pool's real discipline: consult the shard under
// the latch, read the store after releasing it.
func fillOutsideLatch(sh *shard, st Store, addr int32) (*Bucket, error) {
	sh.mu.RLock()
	b, ok := sh.byAddr[addr]
	sh.mu.RUnlock()
	if ok {
		return b, nil
	}
	return st.Read(addr)
}

// latch models the latch table: a bare *RWMutex handle per bucket address.
func (f *File) latch(i int) *sync.RWMutex { return &f.buckets[i].mu }

// bucketIOUnderLatch is the concurrent engine's discipline: a bucket's
// store I/O runs under that bucket's own latch (a bare handle) — rule 3
// restricts shard latches, not bucket latches.
func (f *File) bucketIOUnderLatch(st Store, i int) error {
	mu := f.latch(i)
	mu.Lock()
	defer mu.Unlock()
	return st.Write(int32(i), &Bucket{})
}

// structuralAfterLatch inverts the lock hierarchy: an overflow discovered
// under a bucket latch must release it and retry under the structural
// lock, never lock upward.
func (f *File) structuralAfterLatch(i int) {
	mu := f.latch(i)
	mu.Lock()
	f.structural.Lock() // want `structural lock f\.structural acquired while bucket latch mu is held`
	f.structural.Unlock()
	mu.Unlock()
}

// releaseThenStructural is the sanctioned shape of the same operation.
func (f *File) releaseThenStructural(i int) {
	mu := f.latch(i)
	mu.Lock()
	over := f.buckets[i].n > 0
	mu.Unlock()
	if over {
		f.structural.Lock()
		f.structural.Unlock()
	}
}

// lockSubtrees is the engine's sanctioned single-stripe loop, recognized
// by name like LockPair: the key set is sorted and deduplicated before
// the loop.
func (f *File) lockSubtrees(ks []int) func() {
	for _, k := range ks {
		f.stripes.Lock(k)
	}
	return func() {
		for i := len(ks) - 1; i >= 0; i-- {
			f.stripes.Unlock(ks[i])
		}
	}
}

// stripeDirect locks a single stripe outside the sanctioned sites: a
// colliding key in a second such site is a deadlock the ascending-set
// discipline exists to prevent.
func (f *File) stripeDirect(k int) {
	f.stripes.Lock(k) // want `subtree stripe f\.stripes locked directly in stripeDirect`
	f.stripes.Unlock(k)
}

// stripeUnderLatch inverts the stripe > latch hierarchy: the maintenance
// path derives its whole stripe set before latching anything.
func (f *File) stripeUnderLatch(i, k int) {
	mu := f.latch(i)
	mu.Lock()
	unlock := f.stripes.Acquire(k) // want `subtree stripe f\.stripes acquired while bucket latch mu is held`
	unlock()
	mu.Unlock()
}

// stripeInMap acquires stripes while ranging over a map: map order is not
// ascending, which silently breaks the multi-stripe cycle argument.
func (f *File) stripeInMap(groups map[int32]int) {
	for _, k := range groups {
		unlock := f.stripes.Acquire(k) // want `subtree stripe f\.stripes acquired inside iteration over a map`
		unlock()
	}
}

// flipUnderLatch is the sanctioned publication shape: the trie flip lock
// sits BELOW the bucket latches (a split publishes while still holding
// the old bucket's latch), so this is exempt from the structural rule.
func (f *File) flipUnderLatch(i int) {
	mu := f.latch(i)
	mu.Lock()
	f.trieMu.Lock()
	f.trieMu.Unlock()
	mu.Unlock()
}

// latchUnderFlip locks below the flip lock: nothing is acquired while it
// is held — its critical sections are the publication flips alone.
func (f *File) latchUnderFlip(i int) {
	f.trieMu.Lock()
	mu := f.latch(i)
	mu.Lock() // want `lock mu acquired while flip lock f\.trieMu is held`
	mu.Unlock()
	f.trieMu.Unlock()
}

// stripeUnderFlip acquires a stripe under the flip lock — upward through
// the entire hierarchy.
func (f *File) stripeUnderFlip(k int) {
	f.trieMu.RLock()
	unlock := f.stripes.Acquire(k) // want `subtree stripe f\.stripes acquired while flip lock f\.trieMu is held`
	unlock()
	f.trieMu.RUnlock()
}

// LockPair is rule 1's sole sanctioned two-latch site: the guarded-merge
// primitive, ascending address order, recognized by name.
func (f *File) LockPair(i, j int) func() {
	if i > j {
		i, j = j, i
	}
	lo := f.latch(i)
	hi := f.latch(j)
	lo.Lock()
	hi.Lock()
	return func() {
		hi.Unlock()
		lo.Unlock()
	}
}
