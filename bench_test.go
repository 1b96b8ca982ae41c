package triehash

import (
	"fmt"
	"sort"
	"testing"

	"triehash/internal/bench"
	"triehash/internal/btree"
	"triehash/internal/core"
	"triehash/internal/store"
	"triehash/internal/workload"
)

// ---------------------------------------------------------------------------
// Paper reproduction benches: one per table/figure of the evaluation.
// Each iteration regenerates the experiment end to end; run with
//
//	go test -bench=Fig -benchmem
//	go test -bench=Sec -benchmem
//
// and see cmd/thbench for the printed tables.
// ---------------------------------------------------------------------------

func benchExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := e.Run()
		if len(tab.Rows) == 0 && len(tab.Notes) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

func BenchmarkFig01ExampleFile(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkFig03BucketSplit(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig04TrieSplit(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkFig05AscendingBasic(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig06DescendingBasic(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig07NoNilNodes(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig08ControlledSplit(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig09Redistribution(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10Ascending(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFig11Descending(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkSec31RandomLoad(b *testing.B)        { benchExperiment(b, "sec31-load") }
func BenchmarkSec31TrieVsBTreeSize(b *testing.B)   { benchExperiment(b, "sec31-size") }
func BenchmarkSec32UnexpectedOrdered(b *testing.B) { benchExperiment(b, "sec32-ordered") }
func BenchmarkSec32PageLoad(b *testing.B)          { benchExperiment(b, "sec32-pages") }
func BenchmarkSec45ControlledLoad(b *testing.B)    { benchExperiment(b, "sec45-control") }
func BenchmarkSec33Deletions(b *testing.B)         { benchExperiment(b, "sec33-delete") }
func BenchmarkSec5AccessCounts(b *testing.B)       { benchExperiment(b, "sec5-access") }
func BenchmarkSec26Balancing(b *testing.B)         { benchExperiment(b, "sec26-balance") }
func BenchmarkSec6Reconstruction(b *testing.B)     { benchExperiment(b, "sec6-reconstruct") }
func BenchmarkSec31Capacity(b *testing.B)          { benchExperiment(b, "sec31-capacity") }

// ---------------------------------------------------------------------------
// Micro-benchmarks: operation costs of the public API and the B-tree
// baseline on the same workload.
// ---------------------------------------------------------------------------

const microKeys = 100000

func microWorkload() []string { return workload.Uniform(7, microKeys, 4, 12) }

func benchVariants() map[string]Options {
	return map[string]Options{
		"TH":   {BucketCapacity: 50, Variant: TH},
		"THCL": {BucketCapacity: 50},
		"MLTH": {BucketCapacity: 50, Variant: TH, PageCapacity: 256},
	}
}

func BenchmarkPut(b *testing.B) {
	ks := microWorkload()
	for name, opts := range benchVariants() {
		opts := opts
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			f, err := Create(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Put(ks[i%len(ks)], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("BTree", func(b *testing.B) {
		b.ReportAllocs()
		t, err := btree.New(btree.Config{LeafCapacity: 50})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Put(ks[i%len(ks)], nil)
		}
	})
}

func BenchmarkGet(b *testing.B) {
	ks := microWorkload()
	for name, opts := range benchVariants() {
		opts := opts
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			f, err := Create(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			for _, k := range ks {
				if err := f.Put(k, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Get(ks[i%len(ks)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("BTree", func(b *testing.B) {
		b.ReportAllocs()
		t, err := btree.New(btree.Config{LeafCapacity: 50})
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range ks {
			t.Put(k, nil)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := t.Get(ks[i%len(ks)]); !ok {
				b.Fatal("missing key")
			}
		}
	})
}

func BenchmarkRange100(b *testing.B) {
	ks := microWorkload()
	sorted := workload.Ascending(ks)
	for name, opts := range benchVariants() {
		opts := opts
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			f, err := Create(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			for _, k := range ks {
				if err := f.Put(k, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := sorted[(i*977)%(len(sorted)-200)]
				n := 0
				if err := f.Range(start, "", func(string, []byte) bool {
					n++
					return n < 100
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBulkLoadCompact(b *testing.B) {
	for _, capacity := range []int{20, 50} {
		capacity := capacity
		b.Run(fmt.Sprintf("b%d", capacity), func(b *testing.B) {
			ks := workload.Ascending(workload.Uniform(8, 20000, 4, 12))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := Create(Options{BucketCapacity: capacity, SplitPos: capacity})
				if err != nil {
					b.Fatal(err)
				}
				for _, k := range ks {
					if err := f.Put(k, nil); err != nil {
						b.Fatal(err)
					}
				}
				if st := f.Stats(); st.Load < 0.99 {
					b.Fatalf("compact load %.3f", st.Load)
				}
				f.Close()
			}
		})
	}
}

// BenchmarkTrieSearch isolates the in-memory trie traversal (no bucket
// access): the digit-at-a-time search of Algorithm A1.
func BenchmarkTrieSearch(b *testing.B) {
	ks := microWorkload()
	f, err := Create(Options{BucketCapacity: 50})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	for _, k := range ks {
		if err := f.Put(k, nil); err != nil {
			b.Fatal(err)
		}
	}
	tr := fTrie(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := tr.Search(ks[i%len(ks)])
		if res.Leaf.IsNil() {
			b.Fatal("nil leaf")
		}
	}
}

func BenchmarkSec23Positioning(b *testing.B) { benchExperiment(b, "sec23-positioning") }
func BenchmarkAblationSplits(b *testing.B)   { benchExperiment(b, "ablation-splits") }

func BenchmarkExtMultilevelTHCL(b *testing.B) { benchExperiment(b, "ext-mlth-thcl") }

// BenchmarkConcurrentGet measures reader scaling of the /VID87/ scheme:
// lock-free trie traversal plus a shared bucket latch.
func BenchmarkConcurrentGet(b *testing.B) {
	f, err := Create(Options{BucketCapacity: 50, Concurrent: true})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ks := microWorkload()
	for _, k := range ks {
		if err := f.Put(k, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := f.Get(ks[i%len(ks)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkConcurrentMixed: readers with a 10% write mix.
func BenchmarkConcurrentMixed(b *testing.B) {
	f, err := Create(Options{BucketCapacity: 50, Concurrent: true})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ks := microWorkload()
	for _, k := range ks[:len(ks)/2] {
		if err := f.Put(k, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := ks[i%len(ks)]
			if i%10 == 0 {
				if err := f.Put(k, nil); err != nil {
					b.Fatal(err)
				}
			} else if _, err := f.Get(ks[i%(len(ks)/2)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkRecover measures the TOR83 rebuild over a ~700-bucket store.
func BenchmarkRecover(b *testing.B) {
	st := store.NewMem()
	cfg := core.Config{Capacity: 20}
	f, err := core.New(cfg, st)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range workload.Uniform(9, 10000, 4, 12) {
		if _, err := f.Put(k, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Recover(cfg, st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtMainMemory(b *testing.B) { benchExperiment(b, "ext-mainmemory") }
func BenchmarkExtDictionary(b *testing.B) { benchExperiment(b, "ext-dictionary") }

// BenchmarkBulkLoadVsIncremental: the one-pass loader against per-key
// compact insertion on the same 20k sorted records.
func BenchmarkBulkLoadVsIncremental(b *testing.B) {
	ks := workload.Ascending(workload.Uniform(8, 20000, 4, 12))
	b.Run("bulk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := 0
			f, err := BulkLoad("", Options{BucketCapacity: 50}, 1.0, func() (string, []byte, bool) {
				if j >= len(ks) {
					return "", nil, false
				}
				k := ks[j]
				j++
				return k, nil, true
			})
			if err != nil {
				b.Fatal(err)
			}
			if f.Stats().Load < 0.99 {
				b.Fatal("not compact")
			}
			f.Close()
		}
	})
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := Create(Options{BucketCapacity: 50, SplitPos: 50})
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range ks {
				if err := f.Put(k, nil); err != nil {
					b.Fatal(err)
				}
			}
			f.Close()
		}
	})
}

// ---------------------------------------------------------------------------
// Buffer pool and batch path benchmarks: the sharded CLOCK pool's hit path,
// and batch lookups against their sequential expansion. EXPERIMENTS.md
// records the headline numbers.
// ---------------------------------------------------------------------------

// BenchmarkConcurrentGetParallel: cache-hit Gets through the public File
// at 8-way parallelism per core. Every bucket is resident, so it isolates
// the pool's hit path: the CLOCK pool serves a shared snapshot and sets a
// reference bit under a shard read lock.
func BenchmarkConcurrentGetParallel(b *testing.B) {
	f, err := Create(Options{BucketCapacity: 50, CacheFrames: 8192})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ks := microWorkload()
	for _, k := range ks {
		if err := f.Put(k, nil); err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range ks { // warm the pool
		if _, err := f.Get(k); err != nil {
			b.Fatal(err)
		}
	}
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := f.Get(ks[i%len(ks)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkBatchGet: one 256-key batch per iteration, against the same
// 256 keys as sequential Gets. The batch takes the file lock once and
// reads each distinct bucket once, so its win grows with key clustering:
// the scattered sub-benchmarks draw 256 uniform keys (≈1 key per bucket
// — grouping overhead with nothing to amortize), the clustered ones take
// 256 consecutive keys in key order (≈5 buckets serve the whole batch).
func BenchmarkBatchGet(b *testing.B) {
	f, err := Create(Options{BucketCapacity: 50, CacheFrames: 8192})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ks := microWorkload()
	for _, k := range ks {
		if err := f.Put(k, nil); err != nil {
			b.Fatal(err)
		}
	}
	sorted := append([]string(nil), ks...)
	sort.Strings(sorted)
	for _, shape := range []struct {
		name string
		keys []string
	}{
		{"scattered", ks[:256]},
		{"clustered", sorted[len(sorted)/2 : len(sorted)/2+256]},
	} {
		b.Run(shape.name+"/sequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, k := range shape.keys {
					if _, err := f.Get(k); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(shape.name+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, errs := f.GetBatch(shape.keys)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkShardedCache: raw pool hit throughput at the store layer,
// parallel readers over a resident working set.
func BenchmarkShardedCache(b *testing.B) {
	st := store.NewSharded(store.NewMem(), 512, 0)
	const buckets = 256
	for i := 0; i < buckets; i++ {
		addr, err := st.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		bk := bucketWith(fmt.Sprintf("k%d", addr))
		if err := st.Write(addr, bk); err != nil {
			b.Fatal(err)
		}
	}
	views := store.NewViews(st)
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int32(0)
		for pb.Next() {
			if _, err := views.View(i%buckets, nil); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
