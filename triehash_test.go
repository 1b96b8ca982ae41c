package triehash

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"triehash/internal/workload"
)

func TestQuickstart(t *testing.T) {
	f, err := Create(Options{BucketCapacity: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Put("litwin", []byte("trie hashing")); err != nil {
		t.Fatal(err)
	}
	v, err := f.Get("litwin")
	if err != nil || string(v) != "trie hashing" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := f.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v", err)
	}
	ok, err := f.Has("litwin")
	if err != nil || !ok {
		t.Fatalf("Has = %v, %v", ok, err)
	}
	if err := f.Delete("litwin"); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete("litwin"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete: %v", err)
	}
}

func TestVariantsAndRange(t *testing.T) {
	for _, opts := range []Options{
		{BucketCapacity: 8},                                // THCL
		{BucketCapacity: 8, Variant: TH},                   // basic
		{BucketCapacity: 8, Variant: TH, PageCapacity: 16}, // MLTH
		{BucketCapacity: 8, Redistribution: RedistBoth},    // THCL + redistribution
		{BucketCapacity: 8, SplitPos: 4, BoundPos: 5},      // deterministic
		{BucketCapacity: 8, Binary: true},                  // binary keys
	} {
		opts := opts
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) {
			f, err := Create(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ks := workload.Uniform(11, 1000, 3, 9)
			for i, k := range ks {
				if err := f.Put(k, []byte(fmt.Sprint(i))); err != nil {
					t.Fatalf("Put(%q): %v", k, err)
				}
			}
			if f.Len() != len(ks) {
				t.Fatalf("Len = %d", f.Len())
			}
			sorted := workload.Ascending(ks)
			var got []string
			if err := f.Range(sorted[100], sorted[200], func(k string, _ []byte) bool {
				got = append(got, k)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			want := sorted[100:201]
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("range returned %d keys, want %d", len(got), len(want))
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st := f.Stats()
			if st.Keys != len(ks) || st.Load <= 0 || st.Buckets == 0 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

func TestMultilevelVariants(t *testing.T) {
	// Both variants page; single-level-only features are rejected.
	if _, err := Create(Options{BucketCapacity: 8, PageCapacity: 16}); err != nil {
		t.Fatalf("MLTH with THCL: %v", err)
	}
	if _, err := Create(Options{BucketCapacity: 8, Variant: TH, PageCapacity: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(Options{BucketCapacity: 8, PageCapacity: 16, Redistribution: RedistBoth}); err == nil {
		t.Fatal("multilevel redistribution accepted")
	}
	if _, err := Create(Options{BucketCapacity: 8, Variant: TH, PageCapacity: 16, RotationMerges: true}); err == nil {
		t.Fatal("multilevel rotation merges accepted")
	}
}

// TestMultilevelCompactTHCL: the paper's future-work combination through
// the public API — a compact, 100%-loaded file with a paged trie.
func TestMultilevelCompactTHCL(t *testing.T) {
	f, err := Create(Options{BucketCapacity: 10, SplitPos: 10, PageCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, k := range workload.Ascending(workload.Uniform(23, 3000, 3, 9)) {
		if err := f.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Load < 0.99 {
		t.Fatalf("multilevel compact load %.3f", st.Load)
	}
	if st.Levels < 2 {
		t.Fatalf("levels = %d", st.Levels)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistentRoundTrip reopens each engine's file and grows it past
// more splits: a reopened file must split as it was created, or a
// multilevel THCL file splitting as basic TH breaks its leaf runs.
func TestPersistentRoundTrip(t *testing.T) {
	for _, opts := range []Options{
		{BucketCapacity: 8},
		{BucketCapacity: 8, Variant: TH, PageCapacity: 12},
		{BucketCapacity: 4, PageCapacity: 16}, // the default variant, THCL
	} {
		opts := opts
		t.Run(fmt.Sprintf("pages=%d", opts.PageCapacity), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			f, err := CreateAt(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			ks := workload.Uniform(12, 400, 3, 9)
			for _, k := range ks {
				if err := f.Put(k, []byte("v:"+k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			// Operations on a closed file fail cleanly.
			if err := f.Put("x", nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("put after close: %v", err)
			}
			if _, err := f.Get("x"); !errors.Is(err, ErrClosed) {
				t.Fatalf("get after close: %v", err)
			}

			g, err := OpenAt(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if g.Len() != len(ks) {
				t.Fatalf("reopened Len = %d, want %d", g.Len(), len(ks))
			}
			for _, k := range ks {
				v, err := g.Get(k)
				if err != nil || string(v) != "v:"+k {
					t.Fatalf("reopened Get(%q) = %q, %v", k, v, err)
				}
			}
			// Still writable after reopen, through enough splits to
			// exercise the reopened split mode.
			for _, k := range workload.Uniform(13, 200, 3, 9) {
				if err := g.Put("zz"+k, []byte("1")); err != nil {
					t.Fatal(err)
				}
			}
			n, prev := 0, ""
			if err := g.Range("", "", func(k string, _ []byte) bool {
				if n > 0 && k <= prev {
					t.Fatalf("Range yields %q after %q", k, prev)
				}
				n, prev = n+1, k
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != g.Len() {
				t.Fatalf("Range yields %d records, Len is %d", n, g.Len())
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOpenAtErrors(t *testing.T) {
	if _, err := OpenAt(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing dir accepted")
	}
}

// TestConcurrentReadersAndWriter: readers share the file lock while a
// writer grows the file, on a single-level file and on a multilevel one
// whose readers share pool frames through the store's view and seek
// their Ranges across pages. Under the concurrent engine at b=2 the
// writer splits constantly, so lock-free readers must never miss a key
// that moves, and the trie outgrows the arena's first chunk of cells
// while they run.
func TestConcurrentReadersAndWriter(t *testing.T) {
	for _, opts := range []Options{
		{BucketCapacity: 10},
		{BucketCapacity: 10, PageCapacity: 16, CacheFrames: 64},
		{BucketCapacity: 2, Concurrent: true},
	} {
		f, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ks := workload.Uniform(13, 2000, 3, 9)
		for _, k := range ks[:1000] {
			if err := f.Put(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 2000; i++ {
					k := ks[rng.Intn(1000)]
					if v, err := f.Get(k); err != nil || string(v) != k {
						errs <- fmt.Errorf("Get(%q) = %q, %v", k, v, err)
						return
					}
					if i%4 != 0 {
						continue
					}
					var got []string
					if err := f.Range(k, "", func(key string, _ []byte) bool {
						got = append(got, key)
						return len(got) < 3
					}); err != nil || len(got) == 0 || got[0] != k || !sort.StringsAreSorted(got) {
						errs <- fmt.Errorf("Range(%q) = %q, %v", k, got, err)
						return
					}
				}
			}(int64(r))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range ks[1000:] {
				if err := f.Put(k, []byte(k)); err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if f.Len() != len(ks) {
			t.Fatalf("PageCapacity=%d: Len = %d, want %d", opts.PageCapacity, f.Len(), len(ks))
		}
		if cells := f.Stats().TrieCells; opts.Concurrent && cells <= 1024 {
			t.Fatalf("concurrent b=2: %d trie cells, want more than one 1024-cell arena chunk", cells)
		}
	}
}

func TestCompactBulkLoad(t *testing.T) {
	// The headline THCL capability through the public API: a compact,
	// 100%-loaded file from sorted input.
	ks := workload.Ascending(workload.Uniform(14, 2000, 3, 9))
	f, err := Create(Options{BucketCapacity: 10, SplitPos: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, k := range ks {
		if err := f.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Load < 0.99 {
		t.Fatalf("compact load %.3f, want ~1.0", st.Load)
	}
}

func TestStatsAndIOCounters(t *testing.T) {
	f, err := Create(Options{BucketCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ks := workload.Uniform(15, 500, 3, 9)
	for _, k := range ks {
		f.Put(k, nil)
	}
	f.ResetIOCounters()
	for _, k := range ks[:100] {
		if _, err := f.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.IO.Reads != 100 || st.IO.Writes != 0 {
		t.Fatalf("IO after 100 searches: %+v (the paper's 1 access/search)", st.IO)
	}
	if st.TrieBytes != st.TrieCells*6 {
		t.Fatalf("TrieBytes %d, cells %d", st.TrieBytes, st.TrieCells)
	}
}

func TestOrderedIteration(t *testing.T) {
	f, err := Create(Options{BucketCapacity: 4, Variant: TH})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, w := range workload.KnuthWords {
		f.Put(w, nil)
	}
	var got []string
	f.Range("a", "", func(k string, _ []byte) bool { got = append(got, k); return true })
	if !sort.StringsAreSorted(got) || len(got) != 31 {
		t.Fatalf("full scan: %v", got)
	}
}

func TestCursor(t *testing.T) {
	for _, opts := range []Options{
		{BucketCapacity: 8},
		{BucketCapacity: 8, Variant: TH, PageCapacity: 16},
	} {
		opts := opts
		t.Run(fmt.Sprintf("pages=%d", opts.PageCapacity), func(t *testing.T) {
			f, err := Create(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ks := workload.Uniform(21, 1000, 3, 9)
			for _, k := range ks {
				if err := f.Put(k, []byte("v:"+k)); err != nil {
					t.Fatal(err)
				}
			}
			sorted := workload.Ascending(ks)

			// Full scan through the cursor.
			cur := f.Seek(sorted[0], "")
			var got []string
			for {
				k, v, ok := cur.Next()
				if !ok {
					break
				}
				if string(v) != "v:"+k {
					t.Fatalf("cursor value mismatch for %q", k)
				}
				got = append(got, k)
			}
			if fmt.Sprint(got) != fmt.Sprint(sorted) {
				t.Fatalf("cursor scan: %d keys, want %d", len(got), len(sorted))
			}

			// Bounded scan from the middle.
			cur = f.Seek(sorted[300], sorted[450])
			got = nil
			for {
				k, _, ok := cur.Next()
				if !ok {
					break
				}
				got = append(got, k)
			}
			if fmt.Sprint(got) != fmt.Sprint(sorted[300:451]) {
				t.Fatalf("bounded cursor: %d keys, want %d", len(got), 151)
			}

			// Seeking between keys starts at the successor.
			cur = f.Seek(sorted[10]+"!", "")
			k, _, ok := cur.Next()
			if !ok || k != sorted[11] {
				t.Fatalf("between-keys seek gave %q, want %q", k, sorted[11])
			}

			// Seeking past the end yields nothing.
			cur = f.Seek("zzzzzzzzzzzz", "")
			if _, _, ok := cur.Next(); ok {
				t.Fatal("cursor past the end returned a record")
			}
		})
	}
}

func TestCursorEmptyFile(t *testing.T) {
	f, err := Create(Options{BucketCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, ok := f.Seek("a", "").Next(); ok {
		t.Fatal("cursor on empty file returned a record")
	}
}

// TestRecoverAt loses the metadata of a persistent file and rebuilds it
// from the bucket headers (the TOR83 recovery).
func TestRecoverAt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	f, err := CreateAt(dir, Options{BucketCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.Uniform(31, 600, 3, 9)
	for _, k := range ks {
		if err := f.Put(k, []byte("v:"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash: metadata gone. OpenAt salvages automatically, taking the
	// bucket capacity from the bucket file's header hint.
	if err := os.Remove(filepath.Join(dir, "meta.th")); err != nil {
		t.Fatal(err)
	}
	s, err := OpenAt(dir)
	if err != nil {
		t.Fatalf("OpenAt auto-salvage: %v", err)
	}
	if s.Len() != len(ks) {
		t.Fatalf("auto-salvage kept %d keys, want %d", s.Len(), len(ks))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("auto-salvage invariants: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Lose the metadata again and exercise the explicit recovery path.
	if err := os.Remove(filepath.Join(dir, "meta.th")); err != nil {
		t.Fatal(err)
	}
	g, err := RecoverAt(dir, Options{BucketCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if v, err := g.Get(k); err != nil || string(v) != "v:"+k {
			t.Fatalf("recovered Get(%q) = %q, %v", k, v, err)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	// RecoverAt re-synced the metadata: a normal open works again.
	h, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Len() != len(ks) {
		t.Fatalf("reopened after recovery: %d keys, want %d", h.Len(), len(ks))
	}
}

// TestRecordSizeGuard: persistent files reject records that could not be
// guaranteed to fit a bucket slot, instead of failing mid-split.
func TestRecordSizeGuard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	f, err := CreateAt(dir, Options{BucketCapacity: 4, SlotBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Put("small", []byte("fits")); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 512)
	if err := f.Put("big", big); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized Put: %v", err)
	}
	// The file remains fully usable and consistent.
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// In-memory files have no limit.
	m, err := Create(Options{BucketCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Put("big", big); err != nil {
		t.Fatalf("in-memory oversized Put: %v", err)
	}
}

// TestBinaryKeysPersistent: arbitrary binary keys round-trip through the
// persistent store and the cursor.
func TestBinaryKeysPersistent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	f, err := CreateAt(dir, Options{BucketCapacity: 8, Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{
		{0x00, 0x01},
		{0x00, 0xFF},
		{0x7F, 0x00, 0x01},
		{0xFF, 0xFE, 0xFD},
		{0x01},
		{0x80, 0x80, 0x80, 0x01},
	}
	for _, k := range keys {
		if err := f.Put(string(k), k); err != nil {
			t.Fatalf("Put(%x): %v", k, err)
		}
	}
	// Trailing zero bytes are rejected (indistinguishable from padding).
	if err := f.Put("\x01\x00", nil); err == nil {
		t.Fatal("trailing-zero key accepted")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, k := range keys {
		v, err := g.Get(string(k))
		if err != nil || string(v) != string(k) {
			t.Fatalf("Get(%x) = %x, %v", k, v, err)
		}
	}
	// Cursor iterates binary keys in byte order.
	cur := g.Seek(string([]byte{0x00}), "")
	prev := ""
	n := 0
	for {
		k, _, ok := cur.Next()
		if !ok {
			break
		}
		if prev != "" && k <= prev {
			t.Fatalf("binary cursor order violated")
		}
		prev = k
		n++
	}
	if n != len(keys) {
		t.Fatalf("cursor saw %d of %d binary keys", n, len(keys))
	}
}

// TestCacheFrames: the buffer pool absorbs repeat reads; the underlying
// transfer counters shrink accordingly.
func TestCacheFrames(t *testing.T) {
	f, err := Create(Options{BucketCapacity: 20, CacheFrames: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ks := workload.Uniform(51, 2000, 4, 10)
	for _, k := range ks {
		if err := f.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.ResetIOCounters()
	// Every bucket fits the pool: repeated reads cost no transfers once
	// warmed.
	for round := 0; round < 3; round++ {
		for _, k := range ks[:500] {
			if _, err := f.Get(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	reads := f.Stats().IO.Reads
	if reads != 0 {
		// The pool was warmed during the load phase (write-through
		// fills frames), so even the first round hits.
		t.Errorf("cached reads reached the store: %d transfers", reads)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Persistent + cached round-trips too.
	dir := filepath.Join(t.TempDir(), "db")
	g, err := CreateAt(dir, Options{BucketCapacity: 20, CacheFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks[:300] {
		if err := g.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, k := range ks[:300] {
		if v, err := h.Get(k); err != nil || string(v) != k {
			t.Fatalf("Get(%q) = %q, %v", k, v, err)
		}
	}
}

// TestCachePoolOwnsPutValues: a caller that reuses its buffer after Put
// on an on-disk file with a buffer pool still reads the bytes it wrote,
// while the bucket's frame is resident and after it is evicted — the
// pool must not keep the caller's slice.
func TestCachePoolOwnsPutValues(t *testing.T) {
	for _, opts := range []Options{{CacheFrames: 8}, {CacheFrames: 8, Concurrent: true}, {CacheFrames: 8, PageCapacity: 16}} {
		f, err := CreateAt(filepath.Join(t.TempDir(), "db"), opts)
		if err != nil {
			t.Fatal(err)
		}
		buf := []byte("original")
		if err := f.Put("k", buf); err != nil {
			t.Fatal(err)
		}
		buf[0] = 'X'
		before := f.Stats().CacheHits
		if v, err := f.Get("k"); err != nil || string(v) != "original" {
			t.Fatalf("%+v: resident Get = %q, %v, want \"original\"", opts, v, err)
		}
		if f.Stats().CacheHits == before {
			t.Fatalf("%+v: the first Get missed the pool; the test needs the frame resident", opts)
		}
		// Keys above "k" split its bucket off early and then write only
		// other buckets, whose frames push it out of the pool.
		for _, k := range workload.Uniform(53, 2000, 4, 10) {
			if err := f.Put("z"+k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		misses := f.Stats().CacheMisses
		if v, err := f.Get("k"); err != nil || string(v) != "original" {
			t.Fatalf("%+v: Get after eviction = %q, %v, want \"original\"", opts, v, err)
		}
		if f.Stats().CacheMisses == misses {
			t.Fatalf("%+v: the last Get hit the pool; the test needs the frame evicted", opts)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBulkLoadFacade: the one-pass loader through the public API, both
// in-memory and persistent.
func TestBulkLoadFacade(t *testing.T) {
	ks := workload.Ascending(workload.Uniform(52, 3000, 3, 10))
	feeder := func() func() (string, []byte, bool) {
		i := 0
		return func() (string, []byte, bool) {
			if i >= len(ks) {
				return "", nil, false
			}
			k := ks[i]
			i++
			return k, []byte(k), true
		}
	}

	f, err := BulkLoad("", Options{BucketCapacity: 20}, 1.0, feeder())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if st := f.Stats(); st.Load < 0.999 || st.Keys != len(ks) {
		t.Fatalf("bulk stats: %+v", st)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "db")
	g, err := BulkLoad(dir, Options{BucketCapacity: 20}, 0.8, feeder())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Len() != len(ks) {
		t.Fatalf("persistent bulk load lost keys: %d", h.Len())
	}
	for _, k := range ks[:200] {
		if v, err := h.Get(k); err != nil || string(v) != k {
			t.Fatalf("Get(%q) = %q, %v", k, v, err)
		}
	}
}
