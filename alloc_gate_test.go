package triehash

import (
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"triehash/internal/workload"
)

// TestOnDiskPutAllocs gates a warm overwrite Put on a FileStore without
// a buffer pool: the bucket read and write go through pooled slot frames
// and the codec allocates nothing per record, so a Put costs at most 10
// allocations and at most one 4 KiB slot of bytes.
func TestOnDiskPutAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, opts := range []Options{{}, {Concurrent: true}} {
		f, err := CreateAt(filepath.Join(t.TempDir(), "db"), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ks := workload.Uniform(1, 5000, 8, 16)
		val := make([]byte, 100)
		for _, k := range ks {
			if err := f.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 2000
		i := 0
		put := func() {
			if err := f.Put(ks[(i*7919)%len(ks)], val); err != nil {
				t.Fatal(err)
			}
			i++
		}
		allocs := testing.AllocsPerRun(runs, put)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < runs; n++ {
			put()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("Concurrent=%v: %v allocations, %.0f B per Put", opts.Concurrent, allocs, bytes)
		if allocs > 10 || bytes > 4096 {
			t.Errorf("Concurrent=%v: an on-disk overwrite Put makes %v allocations and %.0f B, want at most 10 and 4096",
				opts.Concurrent, allocs, bytes)
		}
	}
}

// TestOnDiskGetAllocs gates a warm Get on a FileStore without a buffer
// pool: the page is searched in the pooled slot frame, and the one
// allocation is the value copied out of it.
func TestOnDiskGetAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, opts := range []Options{{}, {Concurrent: true}} {
		f, err := CreateAt(filepath.Join(t.TempDir(), "db"), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ks := workload.Uniform(1, 5000, 8, 16)
		val := make([]byte, 100)
		for _, k := range ks {
			if err := f.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			if _, err := f.Get(ks[(i*7919)%len(ks)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("Concurrent=%v: %v allocations per Get", opts.Concurrent, allocs)
		if allocs > 1 {
			t.Errorf("Concurrent=%v: an on-disk Get makes %v allocations, want at most 1", opts.Concurrent, allocs)
		}
	}
}

// skipUnderRace skips an allocation gate in a binary built with -race:
// the race detector makes sync.Pool drop a share of the frames put back,
// so it counts frame allocations a normal build does not make.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled() {
		t.Skip("the race detector defeats the slot frame pool")
	}
}

func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestMultilevelGetPoolMissAllocs gates a multilevel Get that misses the
// buffer pool: the page is searched in a pooled slot frame and nothing is
// installed, so the one allocation is the value copied out of the frame.
func TestMultilevelGetPoolMissAllocs(t *testing.T) {
	skipUnderRace(t)
	f, err := CreateAt(filepath.Join(t.TempDir(), "db"), Options{BucketCapacity: 20, PageCapacity: 64, CacheFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ks := workload.EnglishLike(1, 3000)
	for _, k := range ks {
		if err := f.Put(k, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(ks)
	// The lowest and highest keys live in different buckets, and the
	// pool holds one frame: every Get evicts the other's bucket.
	ends := [2]string{ks[0], ks[len(ks)-1]}
	before := f.Stats()
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := f.Get(ends[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if hits := f.Stats().CacheHits - before.CacheHits; hits != 0 {
		t.Fatalf("%d Gets hit the pool; the gate measures misses", hits)
	}
	t.Logf("%v allocations per Get", allocs)
	if allocs > 1 {
		t.Errorf("a multilevel Get on a pool miss makes %v allocations, want at most 1", allocs)
	}
}
