package store

import (
	"errors"
	"fmt"
	"math/rand"
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
