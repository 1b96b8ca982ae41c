package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"triehash/internal/bucket"
	"triehash/internal/concurrent"
	"triehash/internal/obs"
	"triehash/internal/store"
	"triehash/internal/trie"
)

// ConcurrentFile is the store-backed /VID87/ engine: a File whose readers
// never take a global lock. The paper's conclusion observes that the
// append-only cell table makes trie search safe against a concurrent
// split, and that a writer needs "only the leaf A and the variable N";
// this type carries that scheme into the real engine, over any
// store.Store (file store, buffer pools, fault and crash wrappers).
//
// The pieces:
//
//   - an atomic cell arena (concurrent.Arena) mirrors the authoritative
//     trie; point operations search it lock-free. The mirror is kept in
//     sync by the trie's Tracer hooks, so a chain of split cells is fully
//     wired before the single pointer flip that publishes it.
//   - one RW latch per bucket (concurrent.Latches). An operation latches
//     exactly one bucket and re-runs the search under the latch: if the
//     key still maps there, the latch orders it against any split or
//     merge of that bucket (those hold the write latch); if not, it
//     retries. Guarded merging is the sole two-latch site and locks in
//     ascending address order.
//   - a subtree stripe table (concurrent.Stripes) shards the structural
//     work: a split or merge locks the stripe of the nearest enclosing
//     trie subtree (hashed from the leaf's logical path; a root fallback
//     stripe covers leaves without one), so structural operations in
//     disjoint subtrees run their store phase — the expensive part — in
//     parallel. Merges spanning the in-order neighbours lock the
//     deduplicated stripe set in ascending index order.
//   - the trie flip lock (trieMu) is the one remaining global
//     serialization point: every access to the authoritative trie — and
//     the arena replay it drives — runs under it. Writers hold it only
//     for the publication flip (the old bucket's shrunk write plus the
//     in-memory trie expansion) or a merge's repoint, never for the
//     split's allocation and new-bucket write, so its critical sections
//     are microseconds where the old global structural lock's were the
//     whole split.
//
// Correctness never rests on the stripes: the bucket latch pins the
// key→bucket mapping (any operation that moves keys off a bucket holds
// its write latch), a merge's both latches pin the pair's adjacency, and
// every decision made outside the latches is re-verified under them. The
// stripes bound how many structural operations contend per subtree and
// carry the per-stripe observability; a hash collision costs waiting,
// not correctness.
//
// Publication is fill-then-flip all the way down: prepareSplit writes the
// new bucket while it is unreachable, and the single SetBoundary under
// trieMu — whose arena replay ends in one atomic pointer store — makes it
// reachable, so lock-free readers never observe a half-installed split.
// The store mutation order of every structural operation is exactly the
// sequential engine's (prepareSplit/finishSplit, mergeInto, borrow are
// shared code), so the crash-recovery reasoning — and the recovery chain
// itself — carries over unchanged.
//
// ConcurrentFile supports the configuration the scheme is proved for:
// THCL with guaranteed merging, no redistribution, no collapse-on-merge,
// no tombstones (the trie stays append-only; NewConcurrent enforces
// this). The sequential File remains the differential oracle: a
// single-threaded workload drives both to byte-identical files.
type ConcurrentFile struct {
	inner   *File
	arena   *concurrent.Arena
	latches *concurrent.Latches
	mirror  *concurrent.Mirror
	stripes *concurrent.Stripes

	// world gates whole-file operations against structural ones: every
	// split/merge/borrow path holds it shared, SaveMeta/Stats/Scrub and
	// friends hold it exclusively. It is uncontended in steady state —
	// the sharding lives in the stripes below it.
	world sync.RWMutex

	// trieMu is the trie flip lock, the innermost lock of the hierarchy
	//
	//	public file lock > world > subtree stripe > bucket latch > trieMu
	//
	// (store shard latches sit below engine code entirely). All
	// authoritative-trie access runs under it: exclusively for the
	// publication flips and merge repoints, shared for whole-trie reads
	// (Range, neighbour queries). Holders do no blocking work beyond
	// the flip's single old-bucket write, which is what shrank the
	// structural wait:hold ratio; they acquire no further locks (the
	// lockorder analyzer enforces it).
	trieMu sync.RWMutex

	// nkeys is the live record count, maintained atomically by the
	// latch-only fast paths; inner.nkeys is synced from it (by delta)
	// whenever inner code that reads or writes it runs under trieMu or
	// the exclusive world lock.
	nkeys atomic.Int64
}

// NewConcurrent wraps f — fresh or reopened, empty or populated — in the
// concurrent engine. The configuration must be THCL with guaranteed
// merging and no redistribution, collapse or tombstoning: those options
// shrink or reorder the cell table, which would invalidate concurrent
// readers' positions (the paper's Section 2.4 reasoning).
func NewConcurrent(f *File) (*ConcurrentFile, error) {
	cfg := f.cfg
	switch {
	case cfg.Mode != trie.ModeTHCL:
		return nil, fmt.Errorf("core: concurrent engine requires THCL (basic-method nil leaves need trie writes on the read path)")
	case cfg.Redistribution != RedistNone:
		return nil, fmt.Errorf("core: concurrent engine is incompatible with redistribution on split")
	case cfg.Merge != MergeGuaranteed:
		return nil, fmt.Errorf("core: concurrent engine requires the guaranteed-load merge policy, have %v", cfg.Merge)
	case cfg.CollapseOnMerge:
		return nil, fmt.Errorf("core: concurrent engine is incompatible with CollapseOnMerge (cell removal invalidates concurrent readers)")
	case cfg.TombstoneMerges:
		return nil, fmt.Errorf("core: concurrent engine is incompatible with TombstoneMerges (Vacuum compacts the cell table)")
	}
	n := f.st.MaxAddr()
	if n < 1 {
		n = 1
	}
	e := &ConcurrentFile{
		inner:   f,
		arena:   concurrent.NewArena(f.trie),
		latches: concurrent.NewLatches(n),
		stripes: concurrent.NewStripes(),
	}
	e.mirror = &concurrent.Mirror{Arena: e.arena, Latches: e.latches}
	f.trie.SetTracer(e.mirror)
	e.nkeys.Store(int64(f.nkeys))
	return e, nil
}

// Inner returns the wrapped sequential File. The caller must hold no
// latch and guarantee quiescence (no concurrent operations) while using
// it directly.
func (e *ConcurrentFile) Inner() *File { return e.inner }

// Config returns the file's configuration.
func (e *ConcurrentFile) Config() Config { return e.inner.cfg }

// Store returns the bucket store.
func (e *ConcurrentFile) Store() store.Store { return e.inner.st }

// Len returns the number of records.
func (e *ConcurrentFile) Len() int { return int(e.nkeys.Load()) }

// syncDown pushes the atomic record count into inner.nkeys. Callers hold
// the flip lock (or the exclusive world lock) and call syncUp with the
// returned base after running inner code, so fast-path increments that
// landed in between are not clobbered.
func (e *ConcurrentFile) syncDown() int64 {
	before := e.nkeys.Load()
	e.inner.nkeys = int(before)
	return before
}

// syncUp folds inner.nkeys mutations (relative to the syncDown base)
// back into the atomic count.
func (e *ConcurrentFile) syncUp(base int64) {
	e.nkeys.Add(int64(e.inner.nkeys) - base)
}

// lockSubtrees acquires the subtree stripes named by ks — deduplicated,
// ascending index order — charging each acquisition to the span's subtree
// stages and, via the hold frames, to the per-stripe contention table.
// The returned unlock releases in reverse, keeping the span's hold frames
// LIFO.
func (e *ConcurrentFile) lockSubtrees(sp *obs.Span, ks ...int) func() {
	ord := concurrent.SortKeys(ks)
	for _, k := range ord {
		e.stripes.Lock(k)
		sp.BeginHold(obs.StripeAddr(k), obs.StageSubtreeWait)
	}
	return func() {
		for i := len(ord) - 1; i >= 0; i-- {
			e.stripes.Unlock(ord[i])
			sp.EndHold(obs.StageSubtreeHold)
		}
	}
}

// Get is GetOp without a span.
func (e *ConcurrentFile) Get(key string) ([]byte, error) { return e.GetOp(key, nil) }

// GetOp returns the value stored under key. The trie search is lock-free
// over the arena; the bucket read happens under the bucket's read latch,
// with the search re-run there to confirm the key still maps to the
// latched bucket (a split or merge may have moved it in between).
//
// Lock attribution, here and on every path that takes a span: BeginHold
// is called right after an acquire returns — charging the acquire wait to
// the wait stage — and EndHold right after the release, charging the
// residual hold to the hold stage and the full wall occupancy to the
// per-bucket contention table.
func (e *ConcurrentFile) GetOp(key string, sp *obs.Span) ([]byte, error) {
	if err := e.inner.cfg.Alphabet.Validate(key); err != nil {
		return nil, err
	}
	for {
		leaf := e.arena.Search(key)
		sp.Mark(obs.StageTrieSearch)
		if leaf.IsNil() {
			return nil, ErrNotFound
		}
		addr := leaf.Addr()
		mu := e.latches.Latch(addr)
		mu.RLock()
		sp.BeginHold(addr, obs.StageLatchWait)
		if cur := e.arena.Search(key); cur.IsNil() || cur.Addr() != addr {
			mu.RUnlock()
			sp.EndHold(obs.StageLatchHold)
			continue
		}
		v, ok, err := e.inner.views.Get(addr, key, sp)
		mu.RUnlock()
		sp.EndHold(obs.StageLatchHold)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, ErrNotFound
		}
		return v, nil
	}
}

// Put is PutOp without a span.
func (e *ConcurrentFile) Put(key string, value []byte) (bool, error) { return e.PutOp(key, value, nil) }

// PutOp inserts or replaces the record for key. Replacements and inserts
// that fit the bucket touch only that bucket's write latch — the paper's
// "only the leaf A" writer. An overflow releases the latch and resolves
// the split on the slow path, under the leaf's subtree stripe, which
// charges the subtree-stripe and flip-lock stages.
func (e *ConcurrentFile) PutOp(key string, value []byte, sp *obs.Span) (bool, error) {
	if err := e.inner.cfg.Alphabet.Validate(key); err != nil {
		return false, err
	}
	for {
		leaf := e.arena.Search(key)
		sp.Mark(obs.StageTrieSearch)
		if leaf.IsNil() {
			break // no bucket to latch; resolve on the slow path
		}
		addr := leaf.Addr()
		mu := e.latches.Latch(addr)
		mu.Lock()
		sp.BeginHold(addr, obs.StageLatchWait)
		if cur := e.arena.Search(key); cur.IsNil() || cur.Addr() != addr {
			mu.Unlock()
			sp.EndHold(obs.StageLatchHold)
			continue
		}
		b, err := e.inner.st.Read(addr)
		sp.Mark(obs.StageStoreRead)
		if err != nil {
			mu.Unlock()
			sp.EndHold(obs.StageLatchHold)
			return false, err
		}
		replaced := b.Put(key, value)
		if e.inner.fitsPage(b) {
			err := e.inner.st.Write(addr, b)
			sp.Mark(obs.StageStoreWrite)
			mu.Unlock()
			sp.EndHold(obs.StageLatchHold)
			if err != nil {
				return replaced, err
			}
			if !replaced {
				e.nkeys.Add(1)
			}
			return replaced, nil
		}
		// Overflow — over the record count, or an over-budget replacement:
		// the split needs the subtree stripe, which orders before bucket
		// latches; release and redo on the slow path.
		mu.Unlock()
		sp.EndHold(obs.StageLatchHold)
		break
	}
	return e.putSlow(key, value, sp)
}

// putSlow runs a Put that may split. It locks the leaf's subtree stripe,
// then the bucket's write latch, re-verifies the mapping (retrying with
// fresh locks if a concurrent structural change moved the key), and runs
// the insert; an overflow prepares the split under those locks — the
// store-expensive part, parallel across subtrees — and publishes it under
// the flip lock. sp (nil when untraced) charges the subtree stripe,
// latch and flip-lock waits and holds to their span stages.
func (e *ConcurrentFile) putSlow(key string, value []byte, sp *obs.Span) (bool, error) {
	e.world.RLock()
	defer e.world.RUnlock()
	for {
		leaf, path := e.arena.SearchPath(key)
		sp.Mark(obs.StageTrieSearch)
		if leaf.IsNil() {
			return false, fmt.Errorf("core: concurrent engine: key %q maps to a nil leaf (THCL files have none)", key)
		}
		addr := leaf.Addr()
		unlock := e.lockSubtrees(sp, e.stripes.KeyOf(path))
		mu := e.latches.Latch(addr)
		mu.Lock()
		sp.BeginHold(addr, obs.StageLatchWait)
		if cur := e.arena.Search(key); cur.IsNil() || cur.Addr() != addr {
			mu.Unlock()
			sp.EndHold(obs.StageLatchHold)
			unlock()
			continue
		}
		replaced, err := e.putLatched(addr, key, value, sp)
		mu.Unlock()
		sp.EndHold(obs.StageLatchHold)
		unlock()
		return replaced, err
	}
}

// putLatched applies one insert-or-replace to bucket addr under its write
// latch (and the enclosing subtree stripe, both held by the caller). The
// store operation sequence — read, put, write, or on overflow read,
// alloc, write new, write old, flip — is exactly the sequential engine's,
// which is what keeps the single-threaded differential byte-identical.
func (e *ConcurrentFile) putLatched(addr int32, key string, value []byte, sp *obs.Span) (bool, error) {
	b, err := e.inner.st.Read(addr)
	sp.Mark(obs.StageStoreRead)
	if err != nil {
		return false, err
	}
	replaced := b.Put(key, value)
	if e.inner.fitsPage(b) {
		err := e.inner.st.Write(addr, b)
		sp.Mark(obs.StageStoreWrite)
		if err != nil {
			return replaced, err
		}
		if !replaced {
			e.nkeys.Add(1)
		}
		return replaced, nil
	}
	// Overflow (count or byte gate): prepare the split off to the side —
	// the new bucket is allocated and written while unreachable, so only
	// this subtree's stripe and this bucket's latch are held — then publish
	// under the flip lock.
	rec, err := e.inner.prepareSplit(addr, b)
	sp.Mark(obs.StageSplit)
	if err != nil {
		return replaced, err
	}
	if err := e.publishSplit(rec, sp); err != nil {
		return replaced, err
	}
	if !replaced {
		e.nkeys.Add(1)
	}
	return replaced, nil
}

// publishSplit installs a prepared split under the flip lock: the old
// bucket's shrunk image is written and the trie expansion (whose arena
// replay ends in one atomic pointer store) makes the new bucket
// reachable. The caller holds the old bucket's write latch, so no reader
// of that bucket can observe the shrunk image before the flip; readers of
// other buckets are never blocked.
func (e *ConcurrentFile) publishSplit(rec *preparedSplit, sp *obs.Span) error {
	e.trieMu.Lock()
	sp.BeginHold(obs.StructLockAddr, obs.StageStructWait)
	base := e.syncDown()
	err := e.inner.finishSplit(rec)
	e.syncUp(base)
	e.trieMu.Unlock()
	sp.EndHold(obs.StageStructHold)
	return err
}

// Delete is DeleteOp without a span.
func (e *ConcurrentFile) Delete(key string) error { return e.DeleteOp(key, nil) }

// DeleteOp removes the record for key. The removal itself needs only the
// bucket's write latch; when it leaves the bucket under half full, the
// guarded maintenance pass (merge or borrow) runs afterwards under the
// affected subtrees' stripes, charged to sp's merge stage.
func (e *ConcurrentFile) DeleteOp(key string, sp *obs.Span) error {
	if err := e.inner.cfg.Alphabet.Validate(key); err != nil {
		return err
	}
	for {
		leaf := e.arena.Search(key)
		sp.Mark(obs.StageTrieSearch)
		if leaf.IsNil() {
			return ErrNotFound
		}
		addr := leaf.Addr()
		mu := e.latches.Latch(addr)
		mu.Lock()
		sp.BeginHold(addr, obs.StageLatchWait)
		if cur := e.arena.Search(key); cur.IsNil() || cur.Addr() != addr {
			mu.Unlock()
			sp.EndHold(obs.StageLatchHold)
			continue
		}
		b, err := e.inner.st.Read(addr)
		sp.Mark(obs.StageStoreRead)
		if err != nil {
			mu.Unlock()
			sp.EndHold(obs.StageLatchHold)
			return err
		}
		if !b.Delete(key) {
			mu.Unlock()
			sp.EndHold(obs.StageLatchHold)
			return ErrNotFound
		}
		err = e.inner.st.Write(addr, b)
		sp.Mark(obs.StageStoreWrite)
		if err != nil {
			mu.Unlock()
			sp.EndHold(obs.StageLatchHold)
			return err
		}
		underflow := 2*b.Len() < e.inner.cfg.Capacity
		mu.Unlock()
		sp.EndHold(obs.StageLatchHold)
		e.nkeys.Add(-1)
		if underflow {
			return e.maintain(key, sp)
		}
		return nil
	}
}

// maintain is the deletion maintenance the paper leaves open for
// /VID87/: guarded merging. It locates the key's bucket, probes its
// in-order neighbours under the flip lock, locks the affected subtrees'
// stripes (ascending, deduplicated — a merge can span up to three), and
// re-verifies everything under them; if a concurrent structural change
// moved the key or the neighbours in between, it retries with fresh
// stripes a bounded number of times and otherwise bails out (the next
// deletion that underflows will try again — single-threaded the retries
// never fire, so the oracle differential is unaffected). sp (nil when
// untraced) charges the stripe waits and, via the per-pass mark, the
// decision work to the merge stage.
func (e *ConcurrentFile) maintain(key string, sp *obs.Span) error {
	e.world.RLock()
	defer e.world.RUnlock()
	for attempt := 0; attempt < 3; attempt++ {
		again, err := e.maintainOnce(key, sp)
		if err != nil || !again {
			return err
		}
	}
	return nil
}

// neighborPaths resolves, under the flip lock, the leaf run of the bucket
// key maps to and the leaves just before and after it, with their
// logical paths — O(depth + run), never a walk over every leaf. The
// neighbours' paths only pick subtree stripes: any leaf of a neighbour's
// run would serve, since the stripe keys are advisory contention shaping,
// not correctness (the latches and the re-verification under them are).
func (e *ConcurrentFile) neighborPaths(key string) trie.LeafRun {
	e.trieMu.RLock()
	defer e.trieMu.RUnlock()
	return e.inner.trie.RunAt(key)
}

// maintainOnce is one guarded-maintenance attempt; retry reports that the
// world changed under it and the caller should re-derive the stripe set.
func (e *ConcurrentFile) maintainOnce(key string, sp *obs.Span) (retry bool, err error) {
	leaf, path := e.arena.SearchPath(key)
	if leaf.IsNil() {
		return false, nil
	}
	addr := leaf.Addr()
	run := e.neighborPaths(key)
	if run.Addr() != addr {
		return true, nil // a flip moved the key since the arena search
	}
	pred, succ := run.Neighbors()
	if pred < 0 && succ < 0 {
		return false, nil // the file's only bucket: no guarantee possible nor needed
	}
	ks := make([]int, 0, 3)
	ks = append(ks, e.stripes.KeyOf(path))
	if pred >= 0 {
		ks = append(ks, e.stripes.KeyOf(run.Pred.Path))
	}
	if succ >= 0 {
		ks = append(ks, e.stripes.KeyOf(run.Succ.Path))
	}
	unlock := e.lockSubtrees(sp, ks...)
	defer unlock()
	defer sp.Mark(obs.StageMerge)
	// Re-verify under the stripes: the mapping or the adjacency may have
	// moved while unlocked (the stripe set would then be stale, so the
	// caller retries rather than proceeding with the wrong locks).
	if cur := e.arena.Search(key); cur.IsNil() || cur.Addr() != addr {
		return true, nil
	}
	r2 := e.neighborPaths(key)
	if p2, s2 := r2.Neighbors(); r2.Addr() != addr || p2 != pred || s2 != succ {
		return true, nil
	}
	b, err := e.readLatched(addr)
	if err != nil {
		return probeFailed(err)
	}
	if 2*b.Len() >= e.inner.cfg.Capacity {
		return false, nil // a concurrent insert resolved the underflow
	}
	var (
		nbAddr  int32 = -1
		nbLen   int
		nbIsSuc bool
	)
	if succ >= 0 {
		sb, err := e.readLatched(succ)
		if err != nil {
			return probeFailed(err)
		}
		if e.inner.mergeFits(sb, b, nil) {
			return false, e.mergeLatched(key, addr, succ, true)
		}
		nbAddr, nbLen, nbIsSuc = succ, sb.Len(), true
	}
	if pred >= 0 {
		pb, err := e.readLatched(pred)
		if err != nil {
			return probeFailed(err)
		}
		if e.inner.mergeFits(pb, b, b.Bound()) {
			return false, e.mergeLatched(key, addr, pred, false)
		}
		if nbAddr < 0 || pb.Len() > nbLen {
			nbAddr, nbLen, nbIsSuc = pred, pb.Len(), false
		}
	}
	if nbAddr < 0 {
		return false, nil
	}
	return false, e.borrowLatched(key, addr, nbAddr, nbIsSuc)
}

// probeFailed maps a failed probe read to maintainOnce's result. The
// stripes need not exclude a concurrent merge that frees a probed bucket
// after the re-verification (they are advisory), so a freed slot means
// the neighbourhood moved: retry. Any other error is real. A freed slot
// the trie still reaches would be damage; maintenance is optional work,
// so it is left to the reads of that bucket and to CheckInvariants and
// Scrub to report.
func probeFailed(err error) (retry bool, _ error) {
	if errors.Is(err, store.ErrNotAllocated) {
		return true, nil
	}
	return false, err
}

// readLatched reads bucket addr under its read latch — the probe used by
// maintenance decisions.
func (e *ConcurrentFile) readLatched(addr int32) (*bucket.Bucket, error) {
	mu := e.latches.Latch(addr)
	mu.RLock()
	b, err := e.inner.st.Read(addr)
	mu.RUnlock()
	return b, err
}

// adjacent re-verifies, under the flip lock, that key still maps to addr
// and that nbAddr is still addr's in-order neighbour on the expected side,
// and returns addr's leaf run. Both write latches are held by the caller,
// which pins the mapping, the run and the adjacency from here on: any
// operation that would change them (a split of either bucket, a merge
// involving either) must hold one of those latches.
func (e *ConcurrentFile) adjacent(key string, addr, nbAddr int32, nbIsSucc bool) ([]trie.LeafPos, bool) {
	run := e.neighborPaths(key)
	nb, succ := run.Neighbors()
	if nbIsSucc {
		nb = succ
	}
	if run.Addr() != addr || nb != nbAddr {
		return nil, false
	}
	return run.Leaves, true
}

// mergeLatched performs a guaranteed-load merge of bucket addr, which
// the deleted key maps to, into its neighbour under both write latches
// (ascending address order). The adjacency and the fit are re-verified
// under the latches; the merge itself — store writes and the trie repoint
// of the run adjacent found — runs under the flip lock, with the same
// publication order as the sequential engine's mergeInto: the grown
// neighbour is written before the trie repoints addr's leaves, and the
// freed slot is released last.
func (e *ConcurrentFile) mergeLatched(key string, addr, nbAddr int32, nbIsSucc bool) error {
	unlock := e.latches.LockPair(addr, nbAddr)
	defer unlock()
	run, ok := e.adjacent(key, addr, nbAddr, nbIsSucc)
	if !ok {
		return nil
	}
	b, err := e.inner.st.Read(addr)
	if err != nil {
		return err
	}
	nb, err := e.inner.st.Read(nbAddr)
	if err != nil {
		return err
	}
	// Re-verify under the latches: a fast-path insert may have refilled
	// either bucket since the unlatched probe. Single-threaded these
	// conditions never fire, so bailing cannot diverge from the oracle.
	var bound []byte
	if !nbIsSucc {
		bound = b.Bound()
	}
	if 2*b.Len() >= e.inner.cfg.Capacity || !e.inner.mergeFits(nb, b, bound) {
		return nil
	}
	e.trieMu.Lock()
	defer e.trieMu.Unlock()
	base := e.syncDown()
	err = e.inner.mergeInto(addr, b, nbAddr, nb, nbIsSucc, run)
	e.syncUp(base)
	return err
}

// borrowLatched rebalances an underflowing bucket by pulling keys from
// its neighbour, under both write latches in ascending address order,
// with the same re-verify discipline as mergeLatched and the boundary
// flip under the flip lock.
func (e *ConcurrentFile) borrowLatched(key string, addr, nbAddr int32, nbIsSucc bool) error {
	unlock := e.latches.LockPair(addr, nbAddr)
	defer unlock()
	if _, ok := e.adjacent(key, addr, nbAddr, nbIsSucc); !ok {
		return nil
	}
	b, err := e.inner.st.Read(addr)
	if err != nil {
		return err
	}
	nb, err := e.inner.st.Read(nbAddr)
	if err != nil {
		return err
	}
	var bound []byte
	if !nbIsSucc {
		bound = b.Bound()
	}
	if 2*b.Len() >= e.inner.cfg.Capacity || e.inner.mergeFits(nb, b, bound) {
		return nil // resolved, or a merge now fits: bail (next underflow retries)
	}
	e.trieMu.Lock()
	defer e.trieMu.Unlock()
	base := e.syncDown()
	err = e.inner.borrow(addr, b, nbAddr, nb, nbIsSucc)
	e.syncUp(base)
	return err
}

// Range is RangeOp without a span.
func (e *ConcurrentFile) Range(from, to string, fn func(key string, value []byte) bool) error {
	return e.RangeOp(from, to, fn, nil)
}

// RangeOp scans [from, to] in key order. It holds the world lock shared
// (excluding only whole-file operations) and the flip lock shared — so
// trie flips wait, but the store phase of concurrent splits, and every
// fast-path read and write, proceed unhindered; bucket reads go through
// the store's view path, whose snapshots are immutable. Excluding the
// flips is what makes the scan sound: the shrunk image of a splitting
// bucket reaches the store only under the exclusive flip lock, together
// with the expansion that makes the new bucket reachable, so the walk
// sees every record exactly once. The flip lock's wait and hold are
// charged to sp's struct stages (the scan's own accesses to theirs); the
// world lock, uncontended outside whole-file operations, is not
// attributed separately.
func (e *ConcurrentFile) RangeOp(from, to string, fn func(key string, value []byte) bool, sp *obs.Span) error {
	e.world.RLock()
	defer e.world.RUnlock()
	e.trieMu.RLock()
	sp.BeginHold(obs.StructLockAddr, obs.StageStructWait)
	defer e.trieMu.RUnlock()
	defer sp.EndHold(obs.StageStructHold)
	return e.inner.RangeOp(from, to, fn, sp)
}

// cgroup is one batch work unit: a bucket and the batch indices mapping
// to it.
type cgroup struct {
	addr int32
	idxs []int
}

// partitionBatch groups pending batch indices by the bucket the arena
// currently maps their key to, ascending by address. Indices whose key
// maps to a nil leaf land in nilIdx.
func (e *ConcurrentFile) partitionBatch(keys []string, pending []int) (groups []cgroup, nilIdx []int) {
	byAddr := make(map[int32][]int, len(pending))
	for _, i := range pending {
		p := e.arena.Search(keys[i])
		if p.IsNil() {
			nilIdx = append(nilIdx, i)
			continue
		}
		byAddr[p.Addr()] = append(byAddr[p.Addr()], i)
	}
	groups = make([]cgroup, 0, len(byAddr))
	for addr, idxs := range byAddr {
		groups = append(groups, cgroup{addr: addr, idxs: idxs})
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].addr < groups[b].addr })
	return groups, nilIdx
}

// GetBatch is GetBatchOp without a span.
func (e *ConcurrentFile) GetBatch(keys []string) (vals [][]byte, errs []error) {
	return e.GetBatchOp(keys, nil)
}

// GetBatchOp looks up many keys in one pass: keys partition by bucket,
// each bucket latch is taken once per round, and groups fan out over a
// worker pool. Keys that move between partitioning and latching retry
// next round — the batch form of the single-key re-validation. The
// fan-out workers run in parallel and cannot share the span's sequential
// mark chain, so they record their latch acquisitions through
// LatchTimers (contention table only); the span gets coarse wave marks —
// partitioning to trie-search, each latched wave's wall time to
// latch-hold.
func (e *ConcurrentFile) GetBatchOp(keys []string, sp *obs.Span) (vals [][]byte, errs []error) {
	o := sp.Observer()
	vals = make([][]byte, len(keys))
	errs = make([]error, len(keys))
	pending := make([]int, 0, len(keys))
	for i, k := range keys {
		if err := e.inner.cfg.Alphabet.Validate(k); err != nil {
			errs[i] = err
			continue
		}
		pending = append(pending, i)
	}
	workers := runtime.GOMAXPROCS(0)
	for len(pending) > 0 {
		groups, nilIdx := e.partitionBatch(keys, pending)
		sp.Mark(obs.StageTrieSearch)
		for _, i := range nilIdx {
			errs[i] = ErrNotFound
		}
		var retryMu sync.Mutex
		var retry []int
		concurrent.FanOut(len(groups), workers, func(gi int) {
			g := groups[gi]
			lt := o.StartLatch(g.addr)
			mu := e.latches.Latch(g.addr)
			mu.RLock()
			lt.Acquired()
			var missed []int
			var b *bucket.Bucket
			var rerr error
			loaded := false
			for _, i := range g.idxs {
				if p := e.arena.Search(keys[i]); p.IsNil() || p.Addr() != g.addr {
					missed = append(missed, i)
					continue
				}
				if !loaded {
					b, rerr = e.inner.views.View(g.addr, nil)
					loaded = true
				}
				if rerr != nil {
					errs[i] = rerr
					continue
				}
				if v, ok := b.Get(keys[i]); ok {
					vals[i] = v
				} else {
					errs[i] = ErrNotFound
				}
			}
			mu.RUnlock()
			lt.Release()
			if len(missed) > 0 {
				retryMu.Lock()
				retry = append(retry, missed...)
				retryMu.Unlock()
			}
		})
		sp.Mark(obs.StageLatchHold)
		pending = retry
	}
	return vals, errs
}

// PutBatch is PutBatchOp without a span.
func (e *ConcurrentFile) PutBatch(keys []string, values [][]byte) (errs []error) {
	return e.PutBatchOp(keys, values, nil)
}

// PutBatchOp inserts or replaces many records in one pass. When one batch
// names a key several times only the last occurrence is applied, so the
// final state matches the sequential loop. The fast wave applies every
// replacement and fitting insert with one latch and one store write per
// bucket, fanning the bucket groups out across workers. A record over the
// count or byte gate cannot be applied without a split, so it is left out
// of its bucket's write; after the fast wave the overflowing records run
// putSlow one by one — the path a single Put's overflow takes, so the
// engine has one split protocol — in input order, so the file's shape
// does not depend on which worker reported them first. sp gets the same
// coarse attribution as GetBatchOp for the fast wave, and each putSlow
// charges its own stages.
func (e *ConcurrentFile) PutBatchOp(keys []string, values [][]byte, sp *obs.Span) (errs []error) {
	if len(keys) != len(values) {
		panic(fmt.Sprintf("core: PutBatch with %d keys but %d values", len(keys), len(values)))
	}
	o := sp.Observer()
	errs = make([]error, len(keys))
	last := make(map[string]int, len(keys))
	for i, k := range keys {
		last[k] = i
	}
	pending := make([]int, 0, len(keys))
	for i, k := range keys {
		if err := e.inner.cfg.Alphabet.Validate(k); err != nil {
			errs[i] = err
			continue
		}
		if last[k] != i {
			continue // superseded within the batch
		}
		pending = append(pending, i)
	}
	workers := runtime.GOMAXPROCS(0)
	var slow []int
	for len(pending) > 0 {
		groups, nilIdx := e.partitionBatch(keys, pending)
		sp.Mark(obs.StageTrieSearch)
		slow = append(slow, nilIdx...)
		var retryMu sync.Mutex
		var retry []int
		var slowMu sync.Mutex
		concurrent.FanOut(len(groups), workers, func(gi int) {
			g := groups[gi]
			lt := o.StartLatch(g.addr)
			mu := e.latches.Latch(g.addr)
			mu.Lock()
			lt.Acquired()
			var missed, over, applied []int
			var added int64
			var b *bucket.Bucket
			var rerr error
			loaded := false
			for _, i := range g.idxs {
				if p := e.arena.Search(keys[i]); p.IsNil() || p.Addr() != g.addr {
					missed = append(missed, i)
					continue
				}
				if !loaded {
					b, rerr = e.inner.st.Read(g.addr)
					loaded = true
				}
				if rerr != nil {
					errs[i] = rerr
					continue
				}
				old, exists := b.Get(keys[i])
				b.Put(keys[i], values[i])
				if e.inner.fitsPage(b) {
					if !exists {
						added++
					}
					applied = append(applied, i)
					continue
				}
				// Over the count or byte gate: the fast wave cannot split,
				// so revert the optimistic put exactly (Put stores value
				// slices by reference, so the old slice is intact) and
				// leave the record to putSlow.
				if exists {
					b.Put(keys[i], old)
				} else {
					b.Delete(keys[i])
				}
				over = append(over, i)
			}
			if len(applied) > 0 {
				if err := e.inner.st.Write(g.addr, b); err != nil {
					for _, i := range applied {
						errs[i] = err
					}
					added = 0
				}
			}
			mu.Unlock()
			lt.Release()
			if added > 0 {
				e.nkeys.Add(added)
			}
			if len(missed) > 0 {
				retryMu.Lock()
				retry = append(retry, missed...)
				retryMu.Unlock()
			}
			if len(over) > 0 {
				slowMu.Lock()
				slow = append(slow, over...)
				slowMu.Unlock()
			}
		})
		sp.Mark(obs.StageLatchHold)
		pending = retry
	}
	sort.Ints(slow)
	for _, i := range slow {
		_, errs[i] = e.putSlow(keys[i], values[i], sp)
	}
	return errs
}

// SaveMeta serializes the file's metadata. The caller must quiesce
// writers (the public layer holds its exclusive lock).
func (e *ConcurrentFile) SaveMeta() []byte {
	e.world.Lock()
	defer e.world.Unlock()
	e.inner.nkeys = int(e.nkeys.Load())
	return e.inner.SaveMeta()
}

// Stats returns the file's statistics. Counts read mid-traffic are
// instantaneous, not a consistent snapshot.
func (e *ConcurrentFile) Stats() Stats {
	e.world.Lock()
	defer e.world.Unlock()
	e.inner.nkeys = int(e.nkeys.Load())
	return e.inner.Stats()
}

// ResetCounters zeroes the split/redistribution and store counters.
func (e *ConcurrentFile) ResetCounters() {
	e.world.Lock()
	defer e.world.Unlock()
	e.inner.ResetCounters()
}

// CheckInvariants verifies the file's structural invariants. The caller
// must quiesce concurrent operations (the public layer holds its
// exclusive lock); the world lock alone does not stop fast-path bucket
// writes.
func (e *ConcurrentFile) CheckInvariants() error {
	e.world.Lock()
	defer e.world.Unlock()
	e.inner.nkeys = int(e.nkeys.Load())
	return e.inner.CheckInvariants()
}

// Scrub quarantines unreadable buckets and rebuilds the trie, returning
// the repaired sequential file for the caller to wrap (NewConcurrent); the
// receiver must not be used afterwards. The caller must quiesce
// concurrent operations.
func (e *ConcurrentFile) Scrub(quarantinePath string) (*File, *ScrubReport, error) {
	e.world.Lock()
	defer e.world.Unlock()
	e.inner.nkeys = int(e.nkeys.Load())
	e.inner.trie.SetTracer(nil)
	nf, rep, err := e.inner.Scrub(quarantinePath)
	if err != nil {
		e.inner.trie.SetTracer(e.mirror) // the old file stays live
		return nil, nil, err
	}
	return nf, rep, nil
}
