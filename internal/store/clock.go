package store

import (
	"runtime"
	"sync"
	"sync/atomic"

	"triehash/internal/bucket"
	"triehash/internal/obs"
)

// ShardedCache is a write-through buffer pool of bucket frames partitioned
// into power-of-two shards (shard = addr & mask), each an independent
// CLOCK (second chance) ring. Where an LRU list must be reordered under
// one lock on every hit, a CLOCK hit only sets the frame's reference bit —
// one atomic store under a shard-local read lock, with no list
// manipulation and no cross-shard contention — so read throughput scales
// with the number of shards.
//
// Frames hold immutable bucket snapshots: a Write or miss-fill installs a
// fresh copy and never mutates one in place. That is what lets ReadView
// hand hits out without cloning (the zero-allocation read path), and
// install the bucket a miss read without cloning it; Read keeps the Store
// contract and clones. A Write installs a snapshot whose values the
// caller's buffers cannot reach.
//
// Over a store that can search a page in place, a Lookup miss is served
// by that search and installs nothing; frames are filled by ReadView, Read
// and write-through.
type ShardedCache struct {
	Store
	search Searcher // the wrapped store's Lookup, nil without one
	mask   int32
	shards []clockShard

	// hook reports hits, misses and evictions to an attached observer
	// (nil = off).
	hook *obs.Hook
}

// clockShard is one independent CLOCK ring plus its addr index.
type clockShard struct {
	mu     sync.RWMutex
	byAddr map[int32]*clockFrame
	ring   []*clockFrame // grows up to frames, then the hand sweeps
	frames int           // ring capacity
	hand   int

	hits, misses, evictions atomic.Int64
}

// clockFrame is one buffer frame. addr and b change only under the
// shard's write lock; ref is the CLOCK reference bit, set by hits under
// the shard's read lock.
type clockFrame struct {
	addr int32
	ref  atomic.Uint32
	b    atomic.Pointer[bucket.Bucket] // immutable snapshot
}

// frameFree marks a frame whose bucket was freed; the slot is reclaimed
// by the next sweep that reaches it.
const frameFree int32 = -1

// NewSharded wraps s with a sharded CLOCK pool of the given total number
// of frames. shards is rounded up to a power of two; shards <= 0 selects
// 2*GOMAXPROCS (the contention the pool exists to spread). Every shard
// holds at least one frame.
func NewSharded(s Store, frames, shards int) *ShardedCache {
	if frames < 1 {
		frames = 1
	}
	if shards <= 0 {
		shards = 2 * runtime.GOMAXPROCS(0)
	}
	if shards > frames {
		shards = frames
	}
	n := 1
	for n < shards && n < 256 {
		n <<= 1
	}
	perShard := (frames + n - 1) / n
	c := &ShardedCache{Store: s, mask: int32(n - 1), shards: make([]clockShard, n)}
	c.search, _ = s.(Searcher)
	for i := range c.shards {
		c.shards[i].frames = perShard
		c.shards[i].byAddr = make(map[int32]*clockFrame, perShard)
	}
	return c
}

// SetObsHook attaches the observability hook hit/miss/evict events go to.
func (c *ShardedCache) SetObsHook(h *obs.Hook) { c.hook = h }

// Unwrap returns the wrapped store.
func (c *ShardedCache) Unwrap() Store { return c.Store }

// Shards returns the number of shards (a power of two).
func (c *ShardedCache) Shards() int { return len(c.shards) }

// Frames returns the pool's total frame capacity.
func (c *ShardedCache) Frames() int { return len(c.shards) * c.shards[0].frames }

// Hits returns the number of reads served from the pool.
func (c *ShardedCache) Hits() int64 { return c.sum(func(s *clockShard) int64 { return s.hits.Load() }) }

// Misses returns the number of reads forwarded to the store.
func (c *ShardedCache) Misses() int64 {
	return c.sum(func(s *clockShard) int64 { return s.misses.Load() })
}

// Evictions returns the number of frames the CLOCK hands have reclaimed.
func (c *ShardedCache) Evictions() int64 {
	return c.sum(func(s *clockShard) int64 { return s.evictions.Load() })
}

func (c *ShardedCache) sum(f func(*clockShard) int64) int64 {
	var t int64
	for i := range c.shards {
		t += f(&c.shards[i])
	}
	return t
}

// ShardStats is one shard's counter snapshot.
type ShardStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// ShardStats returns per-shard hit/miss/eviction counters, index = shard.
func (c *ShardedCache) ShardStats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		out[i] = ShardStats{Hits: s.hits.Load(), Misses: s.misses.Load(), Evictions: s.evictions.Load()}
	}
	return out
}

// ResetCounters implements Store, additionally zeroing the pool's hit,
// miss and eviction counters so every counter family resets together.
func (c *ShardedCache) ResetCounters() {
	for i := range c.shards {
		s := &c.shards[i]
		s.hits.Store(0)
		s.misses.Store(0)
		s.evictions.Store(0)
	}
	c.Store.ResetCounters()
}

func (c *ShardedCache) shard(addr int32) *clockShard { return &c.shards[addr&c.mask] }

// lookup serves a hit: the frame's snapshot pointer plus one reference-bit
// store, under the shard's shared lock.
func (sh *clockShard) lookup(addr int32) (*bucket.Bucket, bool) {
	sh.mu.RLock()
	fr, ok := sh.byAddr[addr]
	if !ok {
		sh.mu.RUnlock()
		return nil, false
	}
	b := fr.b.Load()
	fr.ref.Store(1)
	sh.mu.RUnlock()
	return b, true
}

// peek returns addr's resident snapshot, or nil, without marking it
// referenced.
func (sh *clockShard) peek(addr int32) *bucket.Bucket {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if fr, ok := sh.byAddr[addr]; ok {
		return fr.b.Load()
	}
	return nil
}

// install places an immutable snapshot for addr in the shard, running the
// CLOCK hand when the ring is full. It returns the evicted address and
// whether an eviction happened. overwrite distinguishes write-through
// installs (always newest, replace) from miss-fills (a frame already
// present was installed by a racing write and is at least as new; keep
// it, so a slow miss can never bury fresher contents).
func (sh *clockShard) install(addr int32, b *bucket.Bucket, overwrite bool) (int32, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fr, ok := sh.byAddr[addr]; ok {
		if overwrite {
			fr.b.Store(b)
		}
		fr.ref.Store(1)
		return 0, false
	}
	if len(sh.ring) < sh.frames {
		fr := &clockFrame{addr: addr}
		fr.b.Store(b)
		fr.ref.Store(1)
		sh.ring = append(sh.ring, fr)
		sh.byAddr[addr] = fr
		return 0, false
	}
	// Second chance sweep: a set reference bit buys one lap; the first
	// clear frame is the victim. Hits are blocked by the write lock, so
	// the sweep finds a victim within two laps.
	for {
		fr := sh.ring[sh.hand]
		sh.hand++
		if sh.hand == len(sh.ring) {
			sh.hand = 0
		}
		if fr.ref.Swap(0) != 0 {
			continue
		}
		victim := fr.addr
		delete(sh.byAddr, victim)
		fr.addr = addr
		fr.b.Store(b)
		fr.ref.Store(1)
		sh.byAddr[addr] = fr
		if victim == frameFree {
			return 0, false
		}
		sh.evictions.Add(1)
		return victim, true
	}
}

// drop removes addr's frame (bucket freed); the ring slot stays and is
// reclaimed by the sweep.
func (sh *clockShard) drop(addr int32) {
	sh.mu.Lock()
	if fr, ok := sh.byAddr[addr]; ok {
		delete(sh.byAddr, addr)
		fr.addr = frameFree
		fr.ref.Store(0)
		fr.b.Store(nil)
	}
	sh.mu.Unlock()
}

// miss counts and reports a read the pool could not serve.
func (c *ShardedCache) miss(sh *clockShard, addr int32) {
	sh.misses.Add(1)
	c.hook.Observer().Emit(obs.Event{Type: obs.EvCacheMiss, Addr: addr})
}

// fill resolves a miss: one underlying read, one snapshot installed. For
// an owned read the caller gets the bucket read and the frame keeps a
// clone, so later caller mutations cannot reach the pool; a view shares
// the freshly read bucket with the frame, since neither mutates it.
func (c *ShardedCache) fill(sh *clockShard, addr int32, owned bool) (*bucket.Bucket, error) {
	c.miss(sh, addr)
	b, err := c.Store.Read(addr)
	if err != nil {
		return nil, err
	}
	snap := b
	if owned {
		snap = b.Clone()
	}
	if victim, evicted := sh.install(addr, snap, false); evicted {
		c.hook.Observer().Emit(obs.Event{Type: obs.EvCacheEvict, Addr: victim})
	}
	return b, nil
}

// Read implements Store, serving hits from the pool. The returned bucket
// is owned by the caller (hits are cloned outside any lock).
func (c *ShardedCache) Read(addr int32) (*bucket.Bucket, error) {
	sh := c.shard(addr)
	if b, ok := sh.lookup(addr); ok {
		sh.hits.Add(1)
		c.hook.Observer().Emit(obs.Event{Type: obs.EvCacheHit, Addr: addr})
		return b.Clone(), nil
	}
	return c.fill(sh, addr, true)
}

// ReadView implements Viewer: a hit returns the frame's immutable
// snapshot directly — no clone, no allocation — under the read-only
// contract. A miss installs the bucket it read and returns that same
// snapshot, uncloned.
func (c *ShardedCache) ReadView(addr int32) (*bucket.Bucket, error) {
	sh := c.shard(addr)
	if b, ok := sh.lookup(addr); ok {
		sh.hits.Add(1)
		c.hook.Observer().Emit(obs.Event{Type: obs.EvCacheHit, Addr: addr})
		return b, nil
	}
	return c.fill(sh, addr, false)
}

// ReadViewTagged is ReadView plus the hit/miss verdict, so a span-carrying
// caller can charge the access to the cache-probe stage or the store-read
// stage. Semantics and cost are otherwise identical to ReadView.
func (c *ShardedCache) ReadViewTagged(addr int32) (*bucket.Bucket, bool, error) {
	sh := c.shard(addr)
	if b, ok := sh.lookup(addr); ok {
		sh.hits.Add(1)
		c.hook.Observer().Emit(obs.Event{Type: obs.EvCacheHit, Addr: addr})
		return b, true, nil
	}
	b, err := c.fill(sh, addr, false)
	if err != nil {
		return nil, false, err
	}
	return b, false, nil
}

// Lookup implements Searcher. A hit searches the frame's snapshot and
// allocates nothing. A miss goes to the wrapped store's Lookup and
// installs nothing, so a stream of point lookups over many more buckets
// than frames leaves the pool as ReadView, Read and write-through filled
// it. Over a store without Lookup a miss fills a frame as ReadView does.
// No shard lock is held across the store's I/O.
func (c *ShardedCache) Lookup(addr int32, key string) ([]byte, bool, error) {
	v, ok, _, err := c.LookupTagged(addr, key)
	return v, ok, err
}

// LookupTagged is Lookup plus the hit/miss verdict, as ReadViewTagged is
// ReadView's.
func (c *ShardedCache) LookupTagged(addr int32, key string) ([]byte, bool, bool, error) {
	sh := c.shard(addr)
	if b, ok := sh.lookup(addr); ok {
		sh.hits.Add(1)
		c.hook.Observer().Emit(obs.Event{Type: obs.EvCacheHit, Addr: addr})
		v, found := b.Get(key)
		return v, found, true, nil
	}
	if c.search != nil {
		c.miss(sh, addr)
		v, found, err := c.search.Lookup(addr, key)
		return v, found, false, err
	}
	b, err := c.fill(sh, addr, false)
	if err != nil {
		return nil, false, false, err
	}
	v, found := b.Get(key)
	return v, found, false, nil
}

// Write implements Store write-through: the pool and the backing store
// both receive the new contents. The frame gets a snapshot whose values
// the caller cannot reach: those the resident frame already holds are
// shared and the rest copied (Bucket.Snapshot). A file store keeps none
// of the caller's bytes; a frame that kept them would serve a caller who
// reuses its buffer the new bytes until the frame is evicted and the old
// ones after.
func (c *ShardedCache) Write(addr int32, b *bucket.Bucket) error {
	if err := c.Store.Write(addr, b); err != nil {
		return err
	}
	sh := c.shard(addr)
	if victim, evicted := sh.install(addr, b.Snapshot(sh.peek(addr)), true); evicted {
		c.hook.Observer().Emit(obs.Event{Type: obs.EvCacheEvict, Addr: victim})
	}
	return nil
}

// Free implements Store, evicting the freed bucket from the pool.
func (c *ShardedCache) Free(addr int32) error {
	c.shard(addr).drop(addr)
	return c.Store.Free(addr)
}

// Invalidate drops addr's frame. Required when a slot changes beneath the
// pool (Scrub clearing a quarantined slot on the base store): a retained
// frame would resurrect the cleared bucket.
func (c *ShardedCache) Invalidate(addr int32) {
	c.shard(addr).drop(addr)
}
