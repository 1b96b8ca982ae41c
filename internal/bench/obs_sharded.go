package bench

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"triehash/internal/core"
	"triehash/internal/store"
	"triehash/internal/workload"
)

// ObsCacheSharded compares the two buffer pool implementations — the
// global-mutex LRU (Options.CacheLRU) and the sharded CLOCK pool
// (Options.CacheClock, the default) — under concurrent readers. The same
// populated file is read through each pool by 1, 4 and 16 goroutines
// doing a fixed total number of random bucket fetches; the table reports
// the pool's hit ratio, aggregate throughput, and the mean per-operation
// latency measured inside the reader loops. The latency column is the
// lock-wait proxy: both pools run the identical workload, so any growth
// with goroutine count is time spent queueing on the pool's locks (the
// LRU reorders a global list under one mutex on every hit; CLOCK sets a
// reference bit under a per-shard read lock and serves the bucket without
// cloning).
func ObsCacheSharded() *Table {
	const (
		n        = 20000
		frames   = 256
		totalOps = 64000
	)
	ks := workload.Uniform(23, n, 3, 12)
	t := &Table{
		ID:      "obs-cache-sharded",
		Title:   "Buffer pools under concurrency: LRU vs sharded CLOCK (b=20, 256 frames)",
		Headers: []string{"pool", "goroutines", "hit%", "ops/ms", "ns/op"},
	}
	for _, pool := range []string{"lru", "clock"} {
		mem := store.NewMem()
		var st store.Store
		if pool == "lru" {
			st = store.NewCached(mem, frames)
		} else {
			st = store.NewSharded(mem, frames, 0)
		}
		f, err := core.New(core.Config{Capacity: 20}, st)
		if err != nil {
			panic(err)
		}
		for _, k := range ks {
			if _, err := f.Put(k, nil); err != nil {
				panic(err)
			}
		}
		buckets := int32(mem.Buckets())
		views := store.NewViews(st)
		for _, g := range []int{1, 4, 16} {
			st.ResetCounters()
			per := totalOps / g
			var busy atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					t0 := time.Now()
					for i := 0; i < per; i++ {
						if _, err := views.View(rng.Int31n(buckets), nil); err != nil {
							panic(err)
						}
					}
					busy.Add(int64(time.Since(t0)))
				}(int64(g)*1009 + int64(w))
			}
			wg.Wait()
			wall := time.Since(start)
			p := store.AsCachePool(st)
			hits, misses := p.Hits(), p.Misses()
			ops := g * per
			t.AddRow(pool, g,
				float64(hits)/float64(hits+misses)*100,
				float64(ops)/float64(wall.Milliseconds()+1),
				busy.Load()/int64(ops))
		}
	}
	t.Note("fixed total of %d random bucket fetches split across the goroutines", totalOps)
	t.Note("ns/op is mean in-loop latency: growth with goroutines is time queued on pool locks")
	t.Note("reads go through store.View: CLOCK serves immutable snapshots, LRU clones under its mutex")
	return t
}
