package core

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"triehash/internal/store"
	"triehash/internal/trie"
	"triehash/internal/workload"
)

func sliceFeeder(keys []string) func() (string, []byte, bool) {
	i := 0
	return func() (string, []byte, bool) {
		if i >= len(keys) {
			return "", nil, false
		}
		k := keys[i]
		i++
		return k, []byte("v:" + k), true
	}
}

func TestBulkLoadCompact(t *testing.T) {
	keys := workload.Ascending(workload.Uniform(81, 5000, 3, 10))
	cfg := Config{Capacity: 20, Mode: trie.ModeTHCL}
	f, err := BulkLoad(cfg, store.NewMem(), 1.0, sliceFeeder(keys))
	if err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Keys != len(keys) {
		t.Fatalf("keys = %d", st.Keys)
	}
	if st.Load < 0.999 {
		t.Fatalf("bulk compact load %.4f", st.Load)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if v, err := f.Get(k); err != nil || string(v) != "v:"+k {
			t.Fatalf("Get(%q) = %q, %v", k, v, err)
		}
	}
	// The reconstructed trie arrives balanced: depth is logarithmic-ish,
	// far under the right-deep chain an incremental compact load grows.
	inc := loadFile(t, Config{Capacity: 20, Mode: trie.ModeTHCL, SplitPos: 20}, keys)
	ist := inc.Stats()
	if st.Depth >= ist.Depth {
		t.Errorf("bulk depth %d not below incremental %d", st.Depth, ist.Depth)
	}
	if st.Buckets != ist.Buckets {
		t.Errorf("bulk %d buckets, incremental %d", st.Buckets, ist.Buckets)
	}
	t.Logf("5000 keys compact: bulk depth %d / M %d vs incremental depth %d / M %d",
		st.Depth, st.TrieCells, ist.Depth, ist.TrieCells)
}

func TestBulkLoadFill(t *testing.T) {
	keys := workload.Ascending(workload.Uniform(82, 2000, 3, 10))
	f, err := BulkLoad(Config{Capacity: 20, Mode: trie.ModeTHCL}, store.NewMem(), 0.7, sliceFeeder(keys))
	if err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Load < 0.66 || st.Load > 0.72 {
		t.Fatalf("fill 0.7 gave load %.3f", st.Load)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The slack absorbs random insertions without immediate splits.
	before := st.Buckets
	extra := workload.Uniform(83, 300, 3, 10)
	for _, k := range extra {
		if _, err := f.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if growth := f.Stats().Buckets - before; growth > 60 {
		t.Errorf("%d splits for 300 inserts into 30%% slack", growth)
	}
}

func TestBulkLoadErrors(t *testing.T) {
	ks := []string{"b", "a"}
	if _, err := BulkLoad(Config{Capacity: 4}, store.NewMem(), 1.0, sliceFeeder(ks)); err == nil {
		t.Error("descending input accepted")
	}
	if _, err := BulkLoad(Config{Capacity: 4}, store.NewMem(), 0, sliceFeeder(nil)); err == nil {
		t.Error("zero fill accepted")
	}
	if _, err := BulkLoad(Config{Capacity: 4}, store.NewMem(), 1.0, sliceFeeder([]string{"bad "})); err == nil {
		t.Error("invalid key accepted")
	}
	st := store.NewMem()
	st.Alloc()
	if _, err := BulkLoad(Config{Capacity: 4}, st, 1.0, sliceFeeder(nil)); err == nil {
		t.Error("non-empty store accepted")
	}
}

func TestBulkLoadEmptyAndTiny(t *testing.T) {
	f, err := BulkLoad(Config{Capacity: 4}, store.NewMem(), 1.0, sliceFeeder(nil))
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 || f.Stats().Buckets != 1 {
		t.Fatalf("empty bulk load: %v", f.Stats())
	}
	mustPut(t, f, "works")
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	g, err := BulkLoad(Config{Capacity: 4}, store.NewMem(), 1.0, sliceFeeder([]string{"only"}))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := g.Get("only"); err != nil || string(v) != "v:only" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadEquivalence: a bulk-loaded file and an incrementally loaded
// one are observationally identical, then evolve identically under
// further traffic.
func TestBulkLoadEquivalence(t *testing.T) {
	keys := workload.Ascending(workload.Uniform(84, 1500, 3, 9))
	cfg := Config{Capacity: 10, Mode: trie.ModeTHCL, SplitPos: 10}
	bulk, err := BulkLoad(cfg, store.NewMem(), 1.0, sliceFeeder(keys))
	if err != nil {
		t.Fatal(err)
	}
	inc := newFile(t, cfg)
	for _, k := range keys {
		if _, err := inc.Put(k, []byte("v:"+k)); err != nil {
			t.Fatal(err)
		}
	}
	extra := workload.Uniform(85, 800, 3, 9)
	for _, k := range extra {
		if _, err := bulk.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.Len() != inc.Len() {
		t.Fatalf("len %d vs %d", bulk.Len(), inc.Len())
	}
	// Identical range results.
	sorted := append(append([]string(nil), keys...), extra...)
	sort.Strings(sorted)
	var a, b []string
	bulk.Range(sorted[0], "", func(k string, _ []byte) bool { a = append(a, k); return true })
	inc.Range(sorted[0], "", func(k string, _ []byte) bool { b = append(b, k); return true })
	if len(a) != len(b) {
		t.Fatalf("scans differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scan diverges at %d: %q vs %q", i, a[i], b[i])
		}
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Deletion machinery works on the bulk-loaded file too.
	for _, k := range keys[:500] {
		if err := bulk.Delete(k); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkPerBucket pins the fill arithmetic: round-to-nearest (the old
// truncation turned fill 0.999 of capacity 100 into 99 records per
// bucket, quietly missing the requested load), and rejection — not
// clamping — of fills below one record per bucket.
func TestBulkPerBucket(t *testing.T) {
	cases := []struct {
		cap  int
		fill float64
		want int
	}{
		{100, 0.999, 100}, // truncation regression: 99.9 rounds up
		{100, 0.994, 99},
		{20, 0.7, 14},
		{20, 1.0, 20},
		{4, 0.13, 1}, // 0.52 records rounds up to the minimum
	}
	for _, c := range cases {
		got, err := bulkPerBucket(Config{Capacity: c.cap}, c.fill)
		if err != nil || got != c.want {
			t.Errorf("bulkPerBucket(cap %d, fill %v) = %d, %v; want %d", c.cap, c.fill, got, err, c.want)
		}
	}
	if _, err := bulkPerBucket(Config{Capacity: 20}, 0.01); err == nil || !strings.Contains(err.Error(), "below one") {
		t.Errorf("sub-record fill: err = %v, want guidance mentioning 'below one'", err)
	}
	for _, fill := range []float64{0, -0.5, 1.01} {
		if _, err := bulkPerBucket(Config{Capacity: 20}, fill); err == nil {
			t.Errorf("fill %v accepted", fill)
		}
	}
	// The whole loader refuses too.
	if _, err := BulkLoad(Config{Capacity: 50}, store.NewMem(), 0.005, sliceFeeder([]string{"a"})); err == nil {
		t.Error("BulkLoad accepted a sub-record fill")
	}
}
