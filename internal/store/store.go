// Package store provides bucket storage engines for trie hashing files.
//
// The paper's performance model counts bucket transfers between disk and
// main memory; every store therefore keeps exact access counters. MemStore
// simulates a disk in memory (the configuration used for all experiments),
// while FileStore persists buckets in a single slotted file with checksums,
// demonstrating the method against a real medium.
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"triehash/internal/bucket"
)

// ErrNotAllocated is returned when reading or writing a bucket address
// that was never allocated (or has been freed).
var ErrNotAllocated = errors.New("store: bucket not allocated")

// Counters records the disk traffic a store has served. Reads and Writes
// count bucket transfers — the unit the paper's access costs are stated in.
type Counters struct {
	Reads  int64
	Writes int64
	Allocs int64
	Frees  int64
}

// Accesses returns the total number of bucket transfers.
func (c Counters) Accesses() int64 { return c.Reads + c.Writes }

// Sub returns the counter delta c - base.
func (c Counters) Sub(base Counters) Counters {
	return Counters{
		Reads:  c.Reads - base.Reads,
		Writes: c.Writes - base.Writes,
		Allocs: c.Allocs - base.Allocs,
		Frees:  c.Frees - base.Frees,
	}
}

func (c Counters) String() string {
	return fmt.Sprintf("reads=%d writes=%d allocs=%d frees=%d", c.Reads, c.Writes, c.Allocs, c.Frees)
}

// counterSet is the internal, atomically updated form of Counters, so
// concurrent readers (which stores must support) can count accesses
// without a lock.
type counterSet struct {
	reads, writes, allocs, frees atomic.Int64
}

func (c *counterSet) snapshot() Counters {
	return Counters{
		Reads:  c.reads.Load(),
		Writes: c.writes.Load(),
		Allocs: c.allocs.Load(),
		Frees:  c.frees.Load(),
	}
}

func (c *counterSet) reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.allocs.Store(0)
	c.frees.Store(0)
}

// Store is the bucket I/O interface of the file layer. Addresses are the
// paper's bucket numbers 0, 1, 2, ...; Alloc returns the smallest free
// address, preferring previously freed ones.
type Store interface {
	// Read fetches bucket addr. The returned bucket is owned by the
	// caller; mutations are not visible until Write.
	Read(addr int32) (*bucket.Bucket, error)
	// Write stores bucket b at addr.
	Write(addr int32, b *bucket.Bucket) error
	// Alloc reserves a new bucket address holding an empty bucket.
	Alloc() (int32, error)
	// Free releases addr for reuse.
	Free(addr int32) error
	// Buckets returns the number of currently allocated buckets.
	Buckets() int
	// MaxAddr returns one past the highest address ever allocated (the
	// paper's N+1 when nothing was freed).
	MaxAddr() int32
	// Counters returns the accumulated access counters.
	Counters() Counters
	// ResetCounters zeroes the access counters.
	ResetCounters()
	// Close releases the store's resources.
	Close() error
}

// Viewer is the optional clone-free read path of a store: ReadView
// returns a bucket the caller must treat as immutable. Implementations
// guarantee the returned snapshot is never mutated in place — a later
// Write replaces it — so read-only operations (Get, Range) can skip the
// defensive copy Read makes. Views.View falls back to Read for stores
// without the fast path.
type Viewer interface {
	// ReadView fetches bucket addr as a shared read-only snapshot. The
	// caller must not mutate it.
	ReadView(addr int32) (*bucket.Bucket, error)
}

// Searcher is the optional point lookup of a store: Lookup finds key in
// bucket addr without handing out the bucket, so a store that can search
// its page in place skips the decode. It counts as one bucket read. The
// value is the caller's to read but not to modify. Views.Get falls back
// to ReadView and Bucket.Get for stores without it.
type Searcher interface {
	Lookup(addr int32, key string) (value []byte, found bool, err error)
}

// MemStore is an in-memory simulated disk. It deep-copies buckets on Read
// and Write so that, exactly like a real disk, mutations become visible
// only through an explicit Write — keeping the access discipline of the
// file layer honest. All methods are safe for concurrent use (a sharded
// buffer pool forwards misses and write-throughs from many goroutines at
// once): structural state is guarded by an RWMutex, and stored buckets
// are never mutated in place, so ReadView can hand out shared snapshots
// under the read lock.
type MemStore struct {
	mu    sync.RWMutex
	slots []*bucket.Bucket // nil = free slot
	// corrupt marks slots whose accesses must fail with a CorruptError —
	// MemStore's byte-free equivalent of a torn or decayed slot, planted
	// by CorruptSlot so corruption-recovery paths are testable without a
	// real file. Like FileStore (which verifies a slot's flags before
	// overwriting or freeing it), writes and frees of a corrupt slot fail
	// too; ClearSlot is the only way out, exactly the salvage discipline.
	corrupt map[int32]string
	free    []int32
	live    int
	ctr     counterSet
}

// NewMem returns an empty in-memory store.
func NewMem() *MemStore { return &MemStore{} }

// slot returns the bucket at addr under the caller's lock.
func (s *MemStore) slot(addr int32, op string) (*bucket.Bucket, error) {
	if int(addr) >= len(s.slots) || addr < 0 || s.slots[addr] == nil {
		return nil, fmt.Errorf("%w: %s of %d", ErrNotAllocated, op, addr)
	}
	if reason, ok := s.corrupt[addr]; ok {
		return nil, &CorruptError{Addr: addr, Reason: reason}
	}
	return s.slots[addr], nil
}

// Read implements Store.
func (s *MemStore) Read(addr int32) (*bucket.Bucket, error) {
	s.mu.RLock()
	b, err := s.slot(addr, "read")
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	s.ctr.reads.Add(1)
	return b.Clone(), nil
}

// ReadView implements Viewer: the slot's bucket is returned directly —
// safe because MemStore never mutates a stored bucket in place (Write
// replaces the slot with a fresh clone) — and the access still counts as
// one transfer.
func (s *MemStore) ReadView(addr int32) (*bucket.Bucket, error) {
	s.mu.RLock()
	b, err := s.slot(addr, "read")
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	s.ctr.reads.Add(1)
	return b, nil
}

// Write implements Store.
func (s *MemStore) Write(addr int32, b *bucket.Bucket) error {
	c := b.Clone()
	s.mu.Lock()
	if _, err := s.slot(addr, "write"); err != nil {
		s.mu.Unlock()
		return err
	}
	s.slots[addr] = c
	s.mu.Unlock()
	s.ctr.writes.Add(1)
	return nil
}

// Alloc implements Store.
func (s *MemStore) Alloc() (int32, error) {
	s.ctr.allocs.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live++
	if n := len(s.free); n > 0 {
		addr := s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[addr] = bucket.New(0)
		return addr, nil
	}
	s.slots = append(s.slots, bucket.New(0))
	return int32(len(s.slots) - 1), nil
}

// Free implements Store.
func (s *MemStore) Free(addr int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.slot(addr, "free"); err != nil {
		return err
	}
	s.ctr.frees.Add(1)
	s.live--
	s.slots[addr] = nil
	s.free = append(s.free, addr)
	return nil
}

// Buckets implements Store.
func (s *MemStore) Buckets() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// MaxAddr implements Store.
func (s *MemStore) MaxAddr() int32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int32(len(s.slots))
}

// CorruptSlot implements Corrupter: the slot's reads (and writes/frees,
// which verify the slot first) fail with a CorruptError until the slot is
// cleared. CorruptZero silently drops the slot instead — it reads back as
// never allocated, the byte-level outcome of a zeroed header. seed is
// unused: MemStore stores no bytes, so there is no offset to choose.
func (s *MemStore) CorruptSlot(addr int32, kind CorruptKind, seed int64) error {
	_ = seed
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(addr) >= len(s.slots) || addr < 0 || s.slots[addr] == nil {
		return fmt.Errorf("%w: corrupt of %d", ErrNotAllocated, addr)
	}
	if kind == CorruptZero {
		s.live--
		s.slots[addr] = nil
		s.free = append(s.free, addr)
		delete(s.corrupt, addr)
		return nil
	}
	if s.corrupt == nil {
		s.corrupt = make(map[int32]string)
	}
	s.corrupt[addr] = fmt.Sprintf("injected %s", kind)
	return nil
}

// ClearSlot implements SlotClearer: the slot is released regardless of its
// corruption marker — the quarantine step of Scrub.
func (s *MemStore) ClearSlot(addr int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(addr) >= len(s.slots) || addr < 0 {
		return fmt.Errorf("%w: clear of %d", ErrNotAllocated, addr)
	}
	delete(s.corrupt, addr)
	if s.slots[addr] != nil {
		s.live--
		s.slots[addr] = nil
		s.free = append(s.free, addr)
	}
	return nil
}

// Counters implements Store.
func (s *MemStore) Counters() Counters { return s.ctr.snapshot() }

// ResetCounters implements Store.
func (s *MemStore) ResetCounters() { s.ctr.reset() }

// Close implements Store.
func (s *MemStore) Close() error { return nil }
