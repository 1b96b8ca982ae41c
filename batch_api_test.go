package triehash

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"triehash/internal/bucket"
	"triehash/internal/store"
	"triehash/internal/workload"
)

// bucketWith returns a one-record bucket for store-level tests/benches.
func bucketWith(key string) *bucket.Bucket {
	b := bucket.New(4)
	b.Put(key, nil)
	return b
}

// batchEngine names one file configuration the batch differentials run
// on; disk files are created with CreateAt in a fresh test directory.
type batchEngine struct {
	name string
	opts Options
	disk bool
}

func (e batchEngine) create(t *testing.T) *File {
	t.Helper()
	var f *File
	var err error
	if e.disk {
		f, err = CreateAt(t.TempDir(), e.opts)
	} else {
		f, err = Create(e.opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestGetBatchMatchesGet checks the public batch lookup against its
// sequential expansion on every engine: the single-level engine groups
// keys by bucket, the concurrent engine fans the groups out under their
// bucket latches (in memory and on disk), and the multilevel engine falls
// back to a Get loop.
func TestGetBatchMatchesGet(t *testing.T) {
	for _, e := range []batchEngine{
		{name: "single", opts: Options{BucketCapacity: 8, CacheFrames: 32}},
		{name: "multi", opts: Options{BucketCapacity: 8, PageCapacity: 64}},
		{name: "concurrent", opts: Options{BucketCapacity: 8, Concurrent: true}},
		{name: "concurrent-disk", opts: Options{BucketCapacity: 8, Concurrent: true, SlotBytes: 512}, disk: true},
	} {
		t.Run(e.name, func(t *testing.T) {
			f := e.create(t)
			defer f.Close()
			ks := workload.Uniform(11, 3000, 3, 10)
			for i, k := range ks {
				if err := f.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(5))
			queries := make([]string, 0, 1200)
			for i := 0; i < 1000; i++ {
				queries = append(queries, ks[rng.Intn(len(ks))])
			}
			queries = append(queries, workload.Uniform(99, 200, 3, 10)...) // mostly absent
			vals, errs := f.GetBatch(queries)
			for i, k := range queries {
				wantV, wantErr := f.Get(k)
				if !errors.Is(errs[i], wantErr) {
					t.Fatalf("GetBatch[%d](%q) err = %v, Get err = %v", i, k, errs[i], wantErr)
				}
				if string(vals[i]) != string(wantV) {
					t.Fatalf("GetBatch[%d](%q) = %q, Get = %q", i, k, vals[i], wantV)
				}
			}
		})
	}
}

// TestPutBatchMatchesPut loads the same workload through two PutBatch
// calls and through sequential Puts on a serial in-memory file and
// compares the files. The second batch lands on populated buckets and
// names some keys twice (later values win). The concurrent engine splits
// every record its fast wave cannot fit through putSlow; on disk,
// 512-byte slots, 14-record buckets and values of 0–60 bytes fill pages
// by bytes before by count, so the byte gate as well as the record count
// sends records there.
func TestPutBatchMatchesPut(t *testing.T) {
	ks := workload.Uniform(17, 4000, 3, 8)
	ks = append(ks, ks[2000:2200]...) // duplicates within the second batch
	rng := rand.New(rand.NewSource(17))
	vals := make([][]byte, len(ks))
	for i := range vals {
		v := fmt.Sprintf("v%d:%s", i, strings.Repeat("x", 60))
		vals[i] = []byte(v[:rng.Intn(61)])
	}
	seq, err := Create(Options{BucketCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	for i, k := range ks {
		if err := seq.Put(k, vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	seq.Range("", "", func(k string, v []byte) bool { want = append(want, k+"="+string(v)); return true })
	for _, e := range []batchEngine{
		{name: "serial", opts: Options{BucketCapacity: 10}},
		{name: "concurrent", opts: Options{BucketCapacity: 10, Concurrent: true}},
		{name: "concurrent-disk", opts: Options{BucketCapacity: 14, Concurrent: true, SlotBytes: 512}, disk: true},
	} {
		t.Run(e.name, func(t *testing.T) {
			batch := e.create(t)
			defer batch.Close()
			for _, r := range [][2]int{{0, 2000}, {2000, len(ks)}} {
				for i, err := range batch.PutBatch(ks[r[0]:r[1]], vals[r[0]:r[1]]) {
					if err != nil {
						t.Fatalf("PutBatch[%d](%q): %v", r[0]+i, ks[r[0]+i], err)
					}
				}
			}
			if batch.Len() != seq.Len() {
				t.Fatalf("batch file Len = %d, sequential %d", batch.Len(), seq.Len())
			}
			var got []string
			batch.Range("", "", func(k string, v []byte) bool { got = append(got, k+"="+string(v)); return true })
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("batch and sequential files diverge (%d vs %d records)", len(got), len(want))
			}
			if err := batch.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPutBatchLengthMismatchPanics(t *testing.T) {
	f, err := Create(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("PutBatch with mismatched lengths did not panic")
		}
	}()
	f.PutBatch([]string{"a"}, nil)
}

func TestBatchOnClosedFile(t *testing.T) {
	f, err := Create(Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, errs := f.GetBatch([]string{"a"})
	if !errors.Is(errs[0], ErrClosed) {
		t.Fatalf("GetBatch on closed file: %v", errs[0])
	}
	if errs := f.PutBatch([]string{"a"}, [][]byte{nil}); !errors.Is(errs[0], ErrClosed) {
		t.Fatalf("PutBatch on closed file: %v", errs[0])
	}
}

// TestCachePolicies: the pool CacheFrames installs by default serves the
// file's contents, reports hits through Stats, and is the sharded CLOCK
// pool.
func TestCachePolicies(t *testing.T) {
	t.Run("clock-default", func(t *testing.T) {
		f, err := Create(Options{BucketCapacity: 10, CacheFrames: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ks := workload.Uniform(31, 1000, 3, 8)
		for _, k := range ks {
			if err := f.Put(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range ks {
			v, err := f.Get(k)
			if err != nil || string(v) != k {
				t.Fatalf("Get(%q) = %q, %v", k, v, err)
			}
		}
		st := f.Stats()
		if st.CacheHits+st.CacheMisses == 0 {
			t.Fatal("pool reported no traffic through Stats")
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if store.AsSharded(f.eng.Store()) == nil {
			t.Fatal("CacheFrames installed no sharded pool")
		}
	})
}

// TestCachedGetZeroAlloc is the acceptance gate for the cached Get hot
// path: with the CLOCK pool warm, a public Get allocates nothing — the
// trie descent is path-free, the pool hit hands out a shared snapshot
// instead of a clone, and the bucket search is closure-free. The
// concurrent engine's lock-free arena descent allocates nothing either,
// with or without a pool, and neither engine allocates to report a
// missing key.
func TestCachedGetZeroAlloc(t *testing.T) {
	for _, opts := range []Options{
		{BucketCapacity: 20, CacheFrames: 4096},
		{BucketCapacity: 20, Concurrent: true},
		{BucketCapacity: 20, CacheFrames: 4096, Concurrent: true},
	} {
		f, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ks := workload.Uniform(41, 5000, 3, 10)
		for _, k := range ks {
			if err := f.Put(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range ks { // warm every bucket into the pool
			if _, err := f.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		var sink []byte
		allocs := testing.AllocsPerRun(500, func() {
			v, err := f.Get(ks[4242])
			if err != nil {
				t.Fatal(err)
			}
			sink = v
		})
		_ = sink
		if allocs != 0 {
			t.Fatalf("%+v: cached Get allocates %v objects/op, want 0", opts, allocs)
		}
		allocs = testing.AllocsPerRun(500, func() {
			if _, err := f.Get("zzzzzzzzzzzz"); !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%+v: missing-key Get allocates %v objects/op, want 0", opts, allocs)
		}
	}
}

// TestMultilevelGetZeroAlloc: a warm Get on an in-memory multilevel file
// allocates nothing either, with or without a pool — the page-by-page
// descent carries only the digit index, and the bucket is read through
// the store's view instead of a clone.
func TestMultilevelGetZeroAlloc(t *testing.T) {
	for _, frames := range []int{0, 4096} {
		f, err := Create(Options{BucketCapacity: 20, PageCapacity: 64, CacheFrames: frames})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ks := workload.Uniform(41, 5000, 3, 10)
		for _, k := range ks {
			if err := f.Put(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		if lv := f.Stats().Levels; lv < 2 {
			t.Fatalf("file has %d page levels, want a paged trie", lv)
		}
		for _, k := range ks { // warm every bucket into the pool
			if _, err := f.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		var sink []byte
		allocs := testing.AllocsPerRun(500, func() {
			v, err := f.Get(ks[4242])
			if err != nil {
				t.Fatal(err)
			}
			sink = v
		})
		_ = sink
		if allocs != 0 {
			t.Fatalf("CacheFrames=%d: multilevel Get allocates %v objects/op, want 0", frames, allocs)
		}
	}
}
