package store

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"triehash/internal/bucket"
)

func TestShardedContract(t *testing.T) {
	storeContract(t, NewSharded(NewMem(), 16, 4), true)
}

func TestShardedSingleFrame(t *testing.T) {
	storeContract(t, NewSharded(NewMem(), 1, 8), true)
}

func TestShardedGeometry(t *testing.T) {
	for _, tc := range []struct {
		frames, shards, wantShards int
	}{
		{16, 4, 4},
		{16, 3, 4},   // rounded up to a power of two
		{4, 16, 4},   // shards capped at frames
		{1000, 5, 8}, // rounded up
	} {
		c := NewSharded(NewMem(), tc.frames, tc.shards)
		if c.Shards() != tc.wantShards {
			t.Errorf("NewSharded(frames=%d, shards=%d).Shards() = %d, want %d",
				tc.frames, tc.shards, c.Shards(), tc.wantShards)
		}
		if c.Frames() < tc.frames {
			t.Errorf("NewSharded(frames=%d, shards=%d).Frames() = %d, want >= frames",
				tc.frames, tc.shards, c.Frames())
		}
	}
}

// fillStore allocates n buckets, each holding one record keyed by its
// address, and returns the pool-wrapped store.
func fillStore(t *testing.T, c *ShardedCache, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		addr, err := c.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		b := bucket.New(4)
		b.Put(fmt.Sprintf("k%d", addr), []byte{byte(addr)})
		if err := c.Write(addr, b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardedEvictionAndCounters(t *testing.T) {
	c := NewSharded(NewMem(), 4, 2)
	fillStore(t, c, 16) // 4x the pool: writes must evict
	if c.Evictions() == 0 {
		t.Fatal("filling 16 buckets through a 4-frame pool evicted nothing")
	}
	// Every bucket is still readable (write-through), and the counters add
	// up: reads either hit or miss, never both. Each address is read twice
	// in a row — the second read must find the frame the first installed.
	c.ResetCounters()
	for addr := int32(0); addr < 16; addr++ {
		for rep := 0; rep < 2; rep++ {
			b, err := c.Read(addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := b.Get(fmt.Sprintf("k%d", addr)); !ok {
				t.Fatalf("bucket %d lost its record through the pool", addr)
			}
		}
	}
	if got := c.Hits() + c.Misses(); got != 32 {
		t.Fatalf("hits+misses = %d, want 32", got)
	}
	if c.Hits() < 16 {
		t.Fatalf("hits = %d, want >= 16 (every repeated read must hit)", c.Hits())
	}
	// Per-shard stats sum to the totals.
	var hits, misses, evictions int64
	for _, s := range c.ShardStats() {
		hits += s.Hits
		misses += s.Misses
		evictions += s.Evictions
	}
	if hits != c.Hits() || misses != c.Misses() || evictions != c.Evictions() {
		t.Fatalf("ShardStats sums (%d,%d,%d) != totals (%d,%d,%d)",
			hits, misses, evictions, c.Hits(), c.Misses(), c.Evictions())
	}
}

func TestShardedSecondChance(t *testing.T) {
	// One shard, two frames: referencing a frame must save it from the
	// next eviction (that is the CLOCK property).
	c := NewSharded(NewMem(), 2, 1)
	fillStore(t, c, 2) // addrs 0, 1 resident
	c.ResetCounters()
	if _, err := c.Read(0); err != nil { // sets 0's reference bit
		t.Fatal(err)
	}
	if c.Hits() != 1 {
		t.Fatalf("hits = %d, want 1 (addrs 0 and 1 resident)", c.Hits())
	}
	// A third bucket forces an eviction; both bits were set by install and
	// the hand clears them in one lap, so this alone does not prove the
	// bit matters — re-read 0 and 1 to observe who survived.
	addr, err := c.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b := bucket.New(4)
	b.Put("k2", nil)
	if err := c.Write(addr, b); err != nil {
		t.Fatal(err)
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
}

func TestShardedReadViewSharesSnapshot(t *testing.T) {
	c := NewSharded(NewMem(), 8, 2)
	fillStore(t, c, 4)
	// Two views of a resident bucket are the same snapshot (no clone) …
	v1, err := c.ReadView(1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.ReadView(1)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("ReadView cloned a resident bucket")
	}
	// … while Read returns an owned copy.
	r, err := c.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if r == v1 {
		t.Fatal("Read returned the shared snapshot")
	}
	// A write replaces the snapshot; held views keep the old contents.
	nb := bucket.New(4)
	nb.Put("new", nil)
	if err := c.Write(1, nb); err != nil {
		t.Fatal(err)
	}
	if _, ok := v1.Get("new"); ok {
		t.Fatal("a held view observed a later write: snapshot mutated in place")
	}
	v3, err := c.ReadView(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v3.Get("new"); !ok {
		t.Fatal("a fresh view missed the write-through")
	}
}

func TestShardedReadViewZeroAlloc(t *testing.T) {
	c := NewSharded(NewMem(), 8, 2)
	fillStore(t, c, 4)
	for addr := int32(0); addr < 4; addr++ {
		if _, err := c.ReadView(addr); err != nil { // warm
			t.Fatal(err)
		}
	}
	var sink *bucket.Bucket
	allocs := testing.AllocsPerRun(200, func() {
		b, err := c.ReadView(2)
		if err != nil {
			t.Fatal(err)
		}
		sink = b
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("ReadView hit allocates %v objects/op, want 0", allocs)
	}
}

// diskPool returns a pool of frames frames in shards shards over a file
// store holding n buckets, written to the store directly so the pool
// starts empty. Bucket addr holds the one record k<addr> = v<addr>.
func diskPool(t *testing.T, frames, shards, n int) *ShardedCache {
	t.Helper()
	fs, err := CreateFile(filepath.Join(t.TempDir(), "buckets.th"), 256)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fs.Close() })
	for i := 0; i < n; i++ {
		addr, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		b := bucket.New(1)
		b.Put(fmt.Sprintf("k%d", addr), []byte(fmt.Sprintf("v%d", addr)))
		if err := fs.Write(addr, b); err != nil {
			t.Fatal(err)
		}
	}
	return NewSharded(fs, frames, shards)
}

// resident returns the number of addresses the pool holds a frame for.
func resident(c *ShardedCache) int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.byAddr)
		sh.mu.RUnlock()
	}
	return n
}

// lookupAll looks up every bucket in addrs and checks the value found.
func lookupAll(t *testing.T, c *ShardedCache, addrs []int32) {
	t.Helper()
	for _, addr := range addrs {
		v, ok, err := c.Lookup(addr, fmt.Sprintf("k%d", addr))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", addr) {
			t.Fatalf("Lookup(%d) = %q, %v, %v", addr, v, ok, err)
		}
	}
}

// addrRange returns the addresses from through to-1.
func addrRange(from, to int) []int32 {
	var addrs []int32
	for a := from; a < to; a++ {
		addrs = append(addrs, int32(a))
	}
	return addrs
}

// TestShardedLookupMissInstallsNothing: over a store that searches in
// place, Lookup misses install nothing, however often they repeat, while
// the frames ReadView filled serve every later Lookup.
func TestShardedLookupMissInstallsNothing(t *testing.T) {
	const frames = 16
	c := diskPool(t, frames, 4, 10*frames)
	for pass := 1; pass <= 2; pass++ {
		lookupAll(t, c, addrRange(0, 10*frames))
		if n := resident(c); n != 0 {
			t.Fatalf("%d passes over %d buckets installed %d frames, want 0", pass, 10*frames, n)
		}
	}
	if c.Hits() != 0 || c.Misses() != 2*10*frames {
		t.Fatalf("hits %d, misses %d after two cold passes", c.Hits(), c.Misses())
	}
	hot := addrRange(0, frames/2)
	for _, addr := range hot {
		if _, err := c.ReadView(addr); err != nil {
			t.Fatal(err)
		}
	}
	if n := resident(c); n != len(hot) {
		t.Fatalf("%d frames resident after ReadView filled the hot set, want %d", n, len(hot))
	}
	c.ResetCounters()
	for round := 0; round < 3; round++ {
		lookupAll(t, c, hot)
	}
	if c.Hits() != int64(3*len(hot)) || c.Misses() != 0 || c.Counters().Reads != 0 {
		t.Fatalf("hot lookups: %d hits, %d misses, %d store reads; want %d hits and nothing else",
			c.Hits(), c.Misses(), c.Counters().Reads, 3*len(hot))
	}
}

// TestShardedLookupHitZeroAlloc: a pool hit searches the frame's snapshot
// and allocates nothing.
func TestShardedLookupHitZeroAlloc(t *testing.T) {
	c := diskPool(t, 8, 2, 4)
	if _, err := c.ReadView(2); err != nil {
		t.Fatal(err)
	}
	before := c.Hits()
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := c.Lookup(2, "k2"); err != nil || !ok {
			t.Fatal(ok, err)
		}
	})
	if c.Hits()-before != 201 {
		t.Fatalf("%d of 201 lookups hit", c.Hits()-before)
	}
	if allocs != 0 {
		t.Fatalf("a Lookup hit allocates %v objects/op, want 0", allocs)
	}
}

// TestShardedLookupWrites is the race-detector workout for the lookup
// path: concurrent Lookups and write-throughs on one pool smaller than
// the file. Writers keep each bucket's one key and change its value;
// readers must always find the key with a value of that bucket. A
// per-bucket read/write latch orders the accesses to one slot, as bucket
// latches do above the store: a file store's pread of a slot is not atomic
// against a pwrite of it.
func TestShardedLookupWrites(t *testing.T) {
	const buckets = 64
	c := diskPool(t, 8, 4, buckets)
	var latch [buckets]sync.RWMutex
	var wg sync.WaitGroup
	fail := make(chan string, 16)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1500; i++ {
				addr := rng.Int31n(buckets)
				key := fmt.Sprintf("k%d", addr)
				if seed%2 == 1 && rng.Intn(2) == 0 { // odd workers also write
					b := bucket.New(1)
					b.Put(key, []byte(fmt.Sprintf("v%d", addr)))
					latch[addr].Lock()
					err := c.Write(addr, b)
					latch[addr].Unlock()
					if err != nil {
						fail <- fmt.Sprintf("write %d: %v", addr, err)
						return
					}
					continue
				}
				latch[addr].RLock()
				v, ok, err := c.Lookup(addr, key)
				latch[addr].RUnlock()
				if err != nil || !ok || string(v) != fmt.Sprintf("v%d", addr) {
					fail <- fmt.Sprintf("Lookup(%d) = %q, %v, %v", addr, v, ok, err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(fail)
	if msg, ok := <-fail; ok {
		t.Fatal(msg)
	}
}

func TestShardedMissFillKeepsNewerWrite(t *testing.T) {
	// A miss-fill must not bury a write that raced past it: install with
	// overwrite=false keeps the resident frame.
	c := NewSharded(NewMem(), 8, 1)
	fillStore(t, c, 1)
	sh := c.shard(0)
	stale := bucket.New(4)
	stale.Put("stale", nil)
	sh.install(0, stale, false)
	v, err := c.ReadView(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.Get("stale"); ok {
		t.Fatal("miss-fill replaced a resident (newer) frame")
	}
}

func TestShardedFreeDropsFrame(t *testing.T) {
	c := NewSharded(NewMem(), 8, 2)
	fillStore(t, c, 4)
	if err := c.Free(3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(3); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("read of freed bucket through the pool: %v", err)
	}
	// The dead frame's slot is reclaimed by later traffic: reallocating
	// and rewriting the address serves the new contents.
	fillStore(t, c, 8) // reuses addr 3 first
	b, err := c.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get("k3"); !ok {
		t.Fatal("reallocated bucket not served after its frame was dropped")
	}
}

// TestShardedStress is the race-detector workout: concurrent readers,
// writers, and allocation churn across every shard, with a pool small
// enough that the CLOCK hands run constantly. Invariant checked by the
// readers: a bucket always contains exactly its own key (writers only
// ever append generation values under that key).
func TestShardedStress(t *testing.T) {
	const (
		buckets = 32
		frames  = 8
		ops     = 3000
	)
	c := NewSharded(NewMem(), frames, 4)
	for i := 0; i < buckets; i++ {
		addr, err := c.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		b := bucket.New(2)
		b.Put(fmt.Sprintf("k%d", addr), []byte{0})
		if err := c.Write(addr, b); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	fail := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				addr := rng.Int31n(buckets)
				key := fmt.Sprintf("k%d", addr)
				switch rng.Intn(4) {
				case 0: // write-through a new generation
					b := bucket.New(2)
					b.Put(key, []byte{byte(i)})
					if err := c.Write(addr, b); err != nil {
						select {
						case fail <- fmt.Sprintf("write %d: %v", addr, err):
						default:
						}
						return
					}
				case 1: // owned read
					b, err := c.Read(addr)
					if err == nil {
						if _, ok := b.Get(key); !ok {
							select {
							case fail <- fmt.Sprintf("bucket %d missing %s", addr, key):
							default:
							}
							return
						}
						b.Put("scribble", nil) // owned: must not leak into the pool
					}
				case 2: // shared view (read-only contract)
					b, err := c.ReadView(addr)
					if err == nil {
						if _, ok := b.Get(key); !ok {
							select {
							case fail <- fmt.Sprintf("view of %d missing %s", addr, key):
							default:
							}
							return
						}
					}
				case 3: // counter polling races the data path
					_ = c.Hits() + c.Misses() + c.Evictions()
				}
			}
		}(int64(w) * 7919)
	}
	wg.Wait()
	close(fail)
	if msg, ok := <-fail; ok {
		t.Fatal(msg)
	}
	// After the dust settles every bucket must hold exactly its own key
	// and no scribbles leaked into the pool.
	for addr := int32(0); addr < buckets; addr++ {
		b, err := c.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := b.Get(fmt.Sprintf("k%d", addr)); !ok {
			t.Fatalf("bucket %d lost its key", addr)
		}
		if _, ok := b.Get("scribble"); ok {
			t.Fatalf("caller mutation of an owned read leaked into bucket %d", addr)
		}
	}
}

func TestAsCachePool(t *testing.T) {
	clock := NewSharded(NewMem(), 4, 2)
	if AsSharded(NewInstrumented(clock, nil)) != clock {
		t.Fatal("AsSharded missed the pool through a wrapper")
	}
	if AsSharded(NewMem()) != nil {
		t.Fatal("AsSharded found a pool in a bare store")
	}
}
