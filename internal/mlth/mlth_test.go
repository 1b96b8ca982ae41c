package mlth

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"triehash/internal/store"
	"triehash/internal/trie"
)

func newFile(t *testing.T, cfg Config) *File {
	t.Helper()
	f, err := New(cfg, store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func randomKeys(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		l := 3 + rng.Intn(8)
		b := make([]byte, l)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		k := string(b)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func TestConfigErrors(t *testing.T) {
	st := store.NewMem()
	for i, cfg := range []Config{
		{Capacity: 1, PageCapacity: 9},
		{Capacity: 4, PageCapacity: 2},
		{Capacity: 4, PageCapacity: 9, SplitPos: 5},
		{Capacity: 4, PageCapacity: 9, SplitNodeFrac: 1.5},
	} {
		if _, err := New(cfg, st); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSingleLevelMatchesPlainTH(t *testing.T) {
	// With a huge page capacity the file never splits pages and behaves
	// like plain trie hashing.
	f := newFile(t, Config{Capacity: 4, PageCapacity: 1 << 20})
	keys := randomKeys(1, 500)
	for _, k := range keys {
		if _, err := f.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Levels() != 1 || f.Pages() != 1 {
		t.Fatalf("levels=%d pages=%d", f.Levels(), f.Pages())
	}
	for _, k := range keys {
		if v, err := f.Get(k); err != nil || string(v) != k {
			t.Fatalf("Get(%q) = %q, %v", k, v, err)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFig4TrieSplit reproduces the paper's Fig 4: the Fig 1 word file with
// page capacity b' = 9 splits its root page when the trie outgrows it; the
// split node moves to a new root page.
func TestFig4TrieSplit(t *testing.T) {
	words := []string{
		"the", "of", "and", "to", "a", "in", "that", "is", "i", "it",
		"for", "as", "with", "was", "his", "he", "be", "not", "by", "but",
		"have", "you", "which", "are", "on", "or", "her", "had", "at", "from",
		"this",
	}
	f := newFile(t, Config{Capacity: 4, PageCapacity: 9, SplitPos: 3})
	for _, w := range words {
		if _, err := f.Put(w, nil); err != nil {
			t.Fatal(err)
		}
	}
	if f.Levels() != 2 {
		t.Fatalf("levels = %d, want 2\n%s", f.Levels(), f.DumpPages())
	}
	if f.PageSplits() == 0 {
		t.Fatal("no page split happened")
	}
	// The root page holds few cells; file-level pages respect b'.
	root := f.PageTrie(f.Root())
	if root.Cells() < 1 || root.Cells() > 9 {
		t.Fatalf("root page has %d cells", root.Cells())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("%v\n%s", err, f.DumpPages())
	}
	for _, w := range words {
		if _, err := f.Get(w); err != nil {
			t.Errorf("Get(%q): %v", w, err)
		}
	}
	t.Logf("Fig 4 reproduction:\n%s", f.DumpPages())
}

func TestAgainstModel(t *testing.T) {
	for _, cfg := range []Config{
		{Capacity: 4, PageCapacity: 9},
		{Capacity: 4, PageCapacity: 5},
		{Capacity: 10, PageCapacity: 16},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("b%d-p%d", cfg.Capacity, cfg.PageCapacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			f := newFile(t, cfg)
			model := map[string]string{}
			for step := 0; step < 3000; step++ {
				n := 1 + rng.Intn(6)
				kb := make([]byte, n)
				for i := range kb {
					kb[i] = byte('a' + rng.Intn(5))
				}
				k := string(kb)
				switch op := rng.Intn(10); {
				case op < 6:
					v := fmt.Sprintf("v%d", step)
					replaced, err := f.Put(k, []byte(v))
					if err != nil {
						t.Fatalf("step %d Put(%q): %v", step, k, err)
					}
					if _, had := model[k]; had != replaced {
						t.Fatalf("step %d Put(%q) replaced=%v", step, k, replaced)
					}
					model[k] = v
				case op < 8:
					v, err := f.Get(k)
					want, had := model[k]
					switch {
					case had && (err != nil || string(v) != want):
						t.Fatalf("step %d Get(%q) = %q,%v want %q", step, k, v, err, want)
					case !had && !errors.Is(err, ErrNotFound):
						t.Fatalf("step %d Get(%q): %v", step, k, err)
					}
				default:
					err := f.Delete(k)
					_, had := model[k]
					switch {
					case had && err != nil:
						t.Fatalf("step %d Delete(%q): %v", step, k, err)
					case !had && !errors.Is(err, ErrNotFound):
						t.Fatalf("step %d Delete(%q): %v", step, k, err)
					}
					delete(model, k)
				}
				if step%500 == 499 {
					if err := f.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v\n%s", step, err, f.DumpPages())
					}
				}
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if f.Len() != len(model) {
				t.Fatalf("file %d keys, model %d", f.Len(), len(model))
			}
		})
	}
}

// TestTwoLevelAccessCost reproduces the paper's headline access cost: with
// the root page in core, a key search in a two-level file costs one page
// read plus one bucket read.
func TestTwoLevelAccessCost(t *testing.T) {
	f := newFile(t, Config{Capacity: 8, PageCapacity: 32})
	keys := randomKeys(3, 5000)
	for _, k := range keys {
		if _, err := f.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if f.Levels() != 2 {
		t.Skipf("file has %d levels; tune parameters", f.Levels())
	}
	f.ResetPageReads()
	f.Store().ResetCounters()
	const probes = 200
	for i := 0; i < probes; i++ {
		if _, err := f.Get(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	pageReads := f.PageReads()
	bucketReads := f.Store().Counters().Reads
	if pageReads != probes || bucketReads != probes {
		t.Errorf("two-level search cost: %d page + %d bucket reads for %d probes, want %d+%d",
			pageReads, bucketReads, probes, probes, probes)
	}
}

// TestThreeLevels pushes the hierarchy to three levels with a tiny page
// capacity.
func TestThreeLevels(t *testing.T) {
	f := newFile(t, Config{Capacity: 2, PageCapacity: 4})
	keys := randomKeys(4, 3000)
	for _, k := range keys {
		if _, err := f.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if f.Levels() < 3 {
		t.Fatalf("levels = %d, want >= 3 (%d pages)", f.Levels(), f.Pages())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:500] {
		if _, err := f.Get(k); err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
	}
}

// threeLevelFiles builds TestThreeLevels' file in both modes: tiny pages
// push the hierarchy to three levels or more.
func threeLevelFiles(t *testing.T) map[string]*File {
	t.Helper()
	files := map[string]*File{}
	for _, mode := range []trie.Mode{trie.ModeBasic, trie.ModeTHCL} {
		f := newFile(t, Config{Capacity: 2, PageCapacity: 4, Mode: mode})
		for _, k := range randomKeys(4, 3000) {
			if _, err := f.Put(k, nil); err != nil {
				t.Fatal(err)
			}
		}
		if f.Levels() < 3 {
			t.Fatalf("%s: levels = %d, want >= 3", mode, f.Levels())
		}
		files[mode.String()] = f
	}
	return files
}

// TestRangeSeekCost: a Range seeks to its first leaf through one
// root-to-leaf path of pages instead of walking every page to its left,
// so a Range from a stored key that stops after one record costs exactly
// Levels()-1 page reads (the root stays in core).
func TestRangeSeekCost(t *testing.T) {
	for name, f := range threeLevelFiles(t) {
		for _, k := range randomKeys(4, 3000)[:300] {
			f.ResetPageReads()
			var got []string
			if err := f.Range(k, "", func(key string, _ []byte) bool {
				got = append(got, key)
				return false
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != k {
				t.Fatalf("%s: Range(%q) stopped after %v", name, k, got)
			}
			if pr, want := f.PageReads(), int64(f.Levels()-1); pr != want {
				t.Fatalf("%s: Range(%q) of one record read %d pages, want %d (%d pages in all)",
					name, k, pr, want, f.Pages())
			}
		}
	}
}

// TestCursorScanCostLinear: a full scan by 128-record Ranges, each
// starting just above the previous batch's last key as Cursor.refill
// does, enters each page at most once beyond its refills' seeks.
func TestCursorScanCostLinear(t *testing.T) {
	for name, f := range threeLevelFiles(t) {
		f.ResetPageReads()
		var all []string
		next, refills := "", 0
		for {
			refills++
			var batch []string
			if err := f.Range(next, "", func(key string, _ []byte) bool {
				batch = append(batch, key)
				return len(batch) < 128
			}); err != nil {
				t.Fatal(err)
			}
			all = append(all, batch...)
			if len(batch) < 128 {
				break
			}
			next = batch[len(batch)-1] + string(f.Alphabet().Min)
		}
		if len(all) != f.Len() || !sort.StringsAreSorted(all) {
			t.Fatalf("%s: scan delivered %d keys (sorted %v), file holds %d",
				name, len(all), sort.StringsAreSorted(all), f.Len())
		}
		bound := int64(refills*(f.Levels()-1) + f.Pages())
		if pr := f.PageReads(); pr > bound {
			t.Fatalf("%s: %d refills read %d pages, want at most %d (%d levels, %d pages)",
				name, refills, pr, bound, f.Levels(), f.Pages())
		}
	}
}

func TestRange(t *testing.T) {
	f := newFile(t, Config{Capacity: 4, PageCapacity: 7})
	var all []string
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("k%04d", i*3)
		all = append(all, k)
		if _, err := f.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(all)
	var got []string
	if err := f.Range("k0100", "k0500", func(k string, _ []byte) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, k := range all {
		if k >= "k0100" && k <= "k0500" {
			want = append(want, k)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
	// Full scan.
	got = nil
	f.Range("k", "", func(k string, _ []byte) bool { got = append(got, k); return true })
	if fmt.Sprint(got) != fmt.Sprint(all) {
		t.Fatalf("full scan has %d keys, want %d", len(got), len(all))
	}
}

// TestPageLoadBands reproduces Section 3.2's page load observations: the
// random-insertion page load sits a few points under the bucket load;
// ordered insertions drive it lower (~40-72%).
func TestPageLoadBands(t *testing.T) {
	keys := randomKeys(5, 6000)
	f := newFile(t, Config{Capacity: 10, PageCapacity: 64})
	for _, k := range keys {
		f.Put(k, nil)
	}
	st := f.Stats()
	if st.FileLevelPageLoad < 0.45 || st.FileLevelPageLoad > 0.85 {
		t.Errorf("random page load %.3f outside a plausible band", st.FileLevelPageLoad)
	}
	sort.Strings(keys)
	fa := newFile(t, Config{Capacity: 10, PageCapacity: 64})
	for _, k := range keys {
		fa.Put(k, nil)
	}
	sta := fa.Stats()
	if sta.FileLevelPageLoad < 0.3 || sta.FileLevelPageLoad > 0.8 {
		t.Errorf("ascending page load %.3f outside the paper's wide band", sta.FileLevelPageLoad)
	}
	t.Logf("page load: random=%.3f ascending=%.3f (buckets: %.3f / %.3f)",
		st.FileLevelPageLoad, sta.FileLevelPageLoad, st.Load, sta.Load)
}

// TestShiftedSplitNode reproduces /ZEG88/: shifting the page split node
// toward the tail raises the page load for expected ascending insertions.
func TestShiftedSplitNode(t *testing.T) {
	keys := randomKeys(6, 6000)
	sort.Strings(keys)
	mid := newFile(t, Config{Capacity: 10, PageCapacity: 64})
	shift := newFile(t, Config{Capacity: 10, PageCapacity: 64, SplitNodeFrac: 0.85})
	for _, k := range keys {
		mid.Put(k, nil)
		shift.Put(k, nil)
	}
	lm := mid.Stats().FileLevelPageLoad
	ls := shift.Stats().FileLevelPageLoad
	if ls <= lm {
		t.Errorf("shifted split node load %.3f not above middle %.3f", ls, lm)
	}
	if err := shift.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("ascending page load: middle=%.3f shifted=%.3f", lm, ls)
}

func TestDeleteAndNilRealloc(t *testing.T) {
	f := newFile(t, Config{Capacity: 2, PageCapacity: 5})
	keys := randomKeys(8, 200)
	for _, k := range keys {
		f.Put(k, []byte(k))
	}
	for _, k := range keys[:150] {
		if err := f.Delete(k); err != nil {
			t.Fatalf("Delete(%q): %v", k, err)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[150:] {
		if v, err := f.Get(k); err != nil || string(v) != k {
			t.Fatalf("survivor Get(%q) = %q, %v", k, v, err)
		}
	}
	// Reinsert into (possibly) nil-leaf territory.
	for _, k := range keys[:150] {
		if _, err := f.Put(k, []byte(k)); err != nil {
			t.Fatalf("reinsert Put(%q): %v", k, err)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
