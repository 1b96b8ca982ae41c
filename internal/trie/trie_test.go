package trie

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"triehash/internal/keys"
)

var ascii = keys.ASCII

func TestPtrTagging(t *testing.T) {
	cases := []struct {
		p      Ptr
		leaf   bool
		nilLf  bool
		edge   bool
		render string
	}{
		{Leaf(0), true, false, false, "0"},
		{Leaf(42), true, false, false, "42"},
		{Edge(0), false, false, true, "->0"},
		{Edge(7), false, false, true, "->7"},
		{Nil, true, true, false, "nil"},
	}
	for _, c := range cases {
		if c.p.IsLeaf() != c.leaf || c.p.IsNil() != c.nilLf || c.p.IsEdge() != c.edge {
			t.Errorf("%v: tags (%v,%v,%v)", c.p, c.p.IsLeaf(), c.p.IsNil(), c.p.IsEdge())
		}
		if c.p.String() != c.render {
			t.Errorf("%v renders %q, want %q", int32(c.p), c.p.String(), c.render)
		}
	}
}

func TestPtrRoundTrip(t *testing.T) {
	f := func(v int32) bool {
		if v == math.MinInt32 {
			return true
		}
		if v < 0 {
			v = -v
		}
		return Leaf(v).Addr() == v && Edge(v).Cell() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewTrie(t *testing.T) {
	tr := New(ascii, 0)
	if tr.Cells() != 0 || tr.Leaves() != 1 || tr.LeafCount(0) != 1 {
		t.Fatalf("fresh trie: cells=%d leaves=%d count0=%d", tr.Cells(), tr.Leaves(), tr.LeafCount(0))
	}
	res := tr.Search("anything")
	if res.Leaf != Leaf(0) || len(res.Path) != 0 || res.Pos != RootPos {
		t.Fatalf("search on fresh trie: %+v", res)
	}
	if err := tr.Check(0); err != nil {
		t.Fatal(err)
	}
}

func TestNewEmptyTrie(t *testing.T) {
	tr := NewEmpty(ascii)
	res := tr.Search("x")
	if !res.Leaf.IsNil() {
		t.Fatalf("search on empty trie gave %v", res.Leaf)
	}
	tr.AllocNil(res.Pos, 0)
	if tr.Search("x").Leaf != Leaf(0) {
		t.Fatal("AllocNil did not install the bucket")
	}
	if tr.NilLeaves() != 0 {
		t.Fatalf("nil leaves = %d after alloc", tr.NilLeaves())
	}
}

func TestSetBoundarySingleDigit(t *testing.T) {
	tr := New(ascii, 0)
	st := tr.SetBoundary("i", []byte("i"), 0, 0, 1, ModeBasic)
	if st.NewCells != 1 || st.NewNilLeaves != 0 {
		t.Fatalf("stats %+v", st)
	}
	if got := tr.Search("in").Leaf; got != Leaf(0) {
		t.Errorf(`"in" -> %v, want 0`, got)
	}
	if got := tr.Search("is").Leaf; got != Leaf(0) {
		t.Errorf(`"is" -> %v, want 0 (prefix "i" vs bound "i")`, got)
	}
	if got := tr.Search("of").Leaf; got != Leaf(1) {
		t.Errorf(`"of" -> %v, want 1`, got)
	}
	if err := tr.Check(0); err != nil {
		t.Fatal(err)
	}
	if tr.String() != "(0 (i,0) 1)" {
		t.Errorf("trie = %s", tr.String())
	}
}

func TestSetBoundaryFig3(t *testing.T) {
	// Build a file region with bucket 7 under path "he": boundaries
	// "g" (buckets below) and "he"; then the Fig 3 split of bucket 7.
	tr := New(ascii, 0)
	tr.SetBoundary("g", []byte("g"), 0, 0, 7, ModeBasic)   // ( ,"g"]->0, >g -> 7
	tr.SetBoundary("he", []byte("he"), 7, 7, 9, ModeBasic) // ("g","he"]->7, rest->9
	// Inserting "hat" overflows bucket 7 = {had, have, he, her}; the
	// split key is "have" (m=3), the bounding key "he" is the last of
	// the five, and the split string is "ha".
	s := ascii.SplitString("have", "he")
	if string(s) != "ha" {
		t.Fatalf("split string %q, want \"ha\"", s)
	}
	st := tr.SetBoundary("have", s, 7, 7, 11, ModeBasic)
	if st.NewCells != 1 {
		t.Fatalf("Fig 3 split should add exactly one cell (a,1); stats %+v", st)
	}
	for k, want := range map[string]int32{
		"had": 7, "hat": 7, "have": 7, // (c)_1 <= "ha"
		"he": 11, "her": 11, // "ha" < (c)_1 <= "he"
		"his": 9, "go": 0, "g": 0, // bound "g" covers every key with (c)_0 <= 'g'
		"h": 7,
	} {
		if got := tr.Search(k).Leaf; got != Leaf(want) {
			t.Errorf("%q -> %v, want %d", k, got, want)
		}
	}
	if err := tr.Check(0); err != nil {
		t.Fatal(err)
	}
}

func TestSetBoundaryMultiDigitBasic(t *testing.T) {
	// Fig 5 of the paper: ascending insertions with m=b make the whole
	// split key the split string, creating nil nodes in basic mode.
	tr := New(ascii, 0)
	st := tr.SetBoundary("oszh", []byte("oszh"), 0, 0, 1, ModeBasic)
	if st.NewCells != 4 {
		t.Fatalf("want 4 new cells for split string oszh, got %+v", st)
	}
	if st.NewNilLeaves != 3 || tr.NilLeaves() != 3 {
		t.Fatalf("want 3 nil leaves, got %+v (trie has %d)", st, tr.NilLeaves())
	}
	if got := tr.Search("osz").Leaf; got != Leaf(0) {
		t.Errorf("osz -> %v", got)
	}
	// Bucket 1's range is ("oszh", "osz"+max]; above it lie nil leaves.
	if got := tr.Search("oszi").Leaf; got != Leaf(1) {
		t.Errorf("oszi -> %v, want 1", got)
	}
	if got := tr.Search("ota").Leaf; !got.IsNil() {
		t.Errorf("ota -> %v, want nil leaf (the paper's Fig 5 allocation point)", got)
	}
	if got := tr.Search("pa").Leaf; !got.IsNil() {
		t.Errorf("pa -> %v, want nil leaf", got)
	}
	if err := tr.Check(0); err != nil {
		t.Fatal(err)
	}
}

func TestSetBoundaryMultiDigitTHCL(t *testing.T) {
	// Fig 7: same split without nil nodes — every right leaf carries the
	// new bucket's address, so ascending keys keep filling bucket 1.
	tr := New(ascii, 0)
	st := tr.SetBoundary("oszh", []byte("oszh"), 0, 0, 1, ModeTHCL)
	if st.NewCells != 4 || st.NewNilLeaves != 0 || tr.NilLeaves() != 0 {
		t.Fatalf("stats %+v, nil leaves %d", st, tr.NilLeaves())
	}
	if tr.LeafCount(1) != 4 {
		t.Fatalf("bucket 1 should be carried by 4 leaves, got %d", tr.LeafCount(1))
	}
	for _, k := range []string{"ota", "oszi", "ovm", "pa", "zz"} {
		if got := tr.Search(k).Leaf; got != Leaf(1) {
			t.Errorf("%q -> %v, want 1", k, got)
		}
	}
	if got := tr.Search("oszh").Leaf; got != Leaf(0) {
		t.Errorf("oszh -> %v, want 0", got)
	}
	if err := tr.Check(0); err != nil {
		t.Fatal(err)
	}
}

func TestSetBoundarySharedLeafSplit(t *testing.T) {
	// After a THCL multi-digit split, split the shared bucket again:
	// exercises the general path with a straddle in a later leaf of the
	// run plus trailing repoints (steps 3.4/3.5).
	tr := New(ascii, 0)
	tr.SetBoundary("oszh", []byte("oszh"), 0, 0, 1, ModeTHCL)
	st := tr.SetBoundary("ota", []byte("ot"), 1, 1, 2, ModeTHCL)
	if err := tr.Check(0); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]int32{
		"oszi": 1, "ota": 1, "ot": 1,
		"ou": 2, "ovm": 2, "pa": 2, "zz": 2,
		"oszh": 0,
	} {
		if got := tr.Search(k).Leaf; got != Leaf(want) {
			t.Errorf("%q -> %v, want %d (stats %+v)", k, got, want, st)
		}
	}
	if tr.LeafCount(1) != 3 || tr.LeafCount(2) != 2 {
		t.Fatalf("leaf counts 1:%d 2:%d", tr.LeafCount(1), tr.LeafCount(2))
	}
}

func TestSetBoundaryPredecessorRedistribution(t *testing.T) {
	// Redistribution to the predecessor (Section 4.4): low receives the
	// keys under the boundary, old keeps the rest.
	tr := New(ascii, 0)
	tr.SetBoundary("g", []byte("g"), 0, 0, 1, ModeTHCL) // <= g -> 0, else 1
	// Bucket 1 = {h, ka, z} overflows: move "h" down into bucket 0.
	tr.SetBoundary("h", []byte("h"), 1, 0, 1, ModeTHCL)
	if err := tr.Check(0); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]int32{
		"f": 0, "g": 0, "h": 0, "ha": 0,
		"i": 1, "ka": 1, "z": 1,
	} {
		if got := tr.Search(k).Leaf; got != Leaf(want) {
			t.Errorf("%q -> %v, want %d", k, got, want)
		}
	}
	if tr.LeafCount(0) != 2 {
		t.Errorf("bucket 0 leaf count %d, want 2", tr.LeafCount(0))
	}
}

func TestSetBoundaryExactAlignment(t *testing.T) {
	// When the boundary coincides with an existing internal bound of the
	// bucket's run, no cell is added: pure repointing (step 3.4).
	tr := New(ascii, 0)
	tr.SetBoundary("kaaa", []byte("kaaa"), 0, 0, 1, ModeTHCL) // chain k,a,a,a
	if tr.LeafCount(1) != 4 {
		t.Fatalf("leaf count 1 = %d", tr.LeafCount(1))
	}
	before := tr.Cells()
	// Bound "ka" is an internal bound of bucket 1's run (the right leaf
	// of the (a,2) cell). Splitting bucket 1 there adds no cell.
	st := tr.SetBoundary("kab", []byte("ka"), 1, 1, 2, ModeTHCL)
	if st.NewCells != 0 {
		t.Errorf("exact alignment added %d cells", st.NewCells)
	}
	if tr.Cells() != before {
		t.Errorf("cells %d -> %d", before, tr.Cells())
	}
	for k, want := range map[string]int32{
		"kaaa": 0, "ka": 0, // <= bound "kaaa"
		"kaab": 1, "kab": 1, // ("kaaa", "ka"+max] -> wait: ("kaaa","kaa"+max] then ("kaa"+max,"ka"+max]
		"kb": 2, "z": 2,
	} {
		if got := tr.Search(k).Leaf; got != Leaf(want) {
			t.Errorf("%q -> %v, want %d", k, got, want)
		}
	}
	if err := tr.Check(0); err != nil {
		t.Fatal(err)
	}
}

// region is one key interval of the reference model: (previous bound,
// Bound] is owned by Addr (-1 = nil leaf region of the basic method).
type region struct {
	bound string // "" = infinite bound; always last
	addr  int32
}

// boundaryModel is the reference model the trie is checked against: a flat
// ordered list of key intervals.
type boundaryModel struct {
	regions []region
}

func newModel() *boundaryModel {
	return &boundaryModel{regions: []region{{bound: "", addr: 0}}}
}

func (m *boundaryModel) cmpBounds(x, y string) int {
	switch {
	case x == "" && y == "":
		return 0
	case x == "":
		return 1
	case y == "":
		return -1
	}
	return ascii.ComparePathBounds([]byte(x), []byte(y))
}

func (m *boundaryModel) lookup(k string) int32 {
	for _, r := range m.regions {
		if r.bound == "" || ascii.KeyLEBound(k, []byte(r.bound)) {
			return r.addr
		}
	}
	panic("unreachable: last bound is infinite")
}

// span returns the index range [lo, hi] of regions owned by addr.
func (m *boundaryModel) span(addr int32) (lo, hi int) {
	lo, hi = -1, -1
	for i, r := range m.regions {
		if r.addr == addr {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	return lo, hi
}

// setBoundary mirrors Trie.SetBoundary in THCL mode.
func (m *boundaryModel) setBoundary(s string, old, low, high int32) {
	var out []region
	inserted := false
	for _, r := range m.regions {
		if r.addr != old {
			out = append(out, r)
			continue
		}
		switch c := m.cmpBounds(r.bound, s); {
		case c < 0:
			out = append(out, region{r.bound, low})
		case c == 0:
			out = append(out, region{r.bound, low})
			inserted = true
		default:
			if !inserted {
				out = append(out, region{s, low})
				inserted = true
			}
			out = append(out, region{r.bound, high})
		}
	}
	m.regions = out
}

// basicSplit mirrors Trie.SetBoundary in basic mode: the bucket has one
// region (prev, C]; it becomes s->old, s[:len-1]->high, then nil regions
// for the remaining chain digits, keeping C as the (nil) top.
func (m *boundaryModel) basicSplit(s string, old, high int32) {
	lo, hi := m.span(old)
	if lo != hi || lo < 0 {
		panic("basic mode: bucket must own exactly one region")
	}
	C := m.regions[lo].bound
	cp := keys.CommonPrefixLen([]byte(s), []byte(C))
	var mid []region
	mid = append(mid, region{s, old})
	for j := len(s) - 1; j > cp; j-- {
		addr := int32(-1)
		if j == len(s)-1 {
			addr = high
		}
		mid = append(mid, region{s[:j], addr})
	}
	topAddr := int32(-1)
	if len(s)-1 == cp { // single-cell chain: C itself becomes the high leaf
		topAddr = high
	}
	mid = append(mid, region{C, topAddr})
	out := append(append([]region(nil), m.regions[:lo]...), mid...)
	out = append(out, m.regions[hi+1:]...)
	m.regions = out
}

func randKey(rng *rand.Rand) string {
	n := 1 + rng.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(4)) // tiny alphabet: deep shared prefixes
	}
	return string(b)
}

// TestSetBoundaryAgainstModel drives random boundary insertions through
// both the trie and the reference model and checks that every key routes
// identically, after every step, in both modes (including the basic
// method's nil regions).
func TestSetBoundaryAgainstModel(t *testing.T) {
	for _, mode := range []Mode{ModeBasic, ModeTHCL} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 40; trial++ {
				tr := New(ascii, 0)
				m := newModel()
				next := int32(1)
				for step := 0; step < 50; step++ {
					k := randKey(rng)
					res := tr.Search(k)
					if res.Leaf.IsNil() {
						if want := m.lookup(k); want != -1 {
							t.Fatalf("trial %d: %q is nil in trie, model says %d", trial, k, want)
						}
						continue
					}
					old := res.Leaf.Addr()
					// Skip vacuous boundaries: k's bound must fall
					// strictly below the top of old's range.
					_, hi := m.span(old)
					if top := m.regions[hi].bound; m.cmpBounds(top, k) <= 0 {
						continue
					}
					low, high := old, next
					if mode == ModeTHCL && rng.Intn(4) == 0 {
						// Occasionally redistribute downward: low
						// takes the predecessor's address.
						if lo, _ := m.span(old); lo > 0 && m.regions[lo-1].addr != -1 {
							low, high = m.regions[lo-1].addr, old
						}
					}
					if low == old && high == next {
						next++
					}
					tr.SetBoundary(k, []byte(k), old, low, high, mode)
					if mode == ModeBasic {
						m.basicSplit(k, old, high)
					} else {
						m.setBoundary(k, old, low, high)
					}
					if err := tr.Check(0); err != nil {
						t.Fatalf("trial %d step %d (key %q): %v\n%s", trial, step, k, err, tr.String())
					}
				}
				// Exhaustive routing comparison on fresh random keys,
				// nil regions included.
				for probe := 0; probe < 300; probe++ {
					k := randKey(rng)
					got := tr.Search(k).Leaf
					want := m.lookup(k)
					switch {
					case got.IsNil() && want == -1:
					case got.IsNil() || want == -1 || got != Leaf(want):
						t.Fatalf("trial %d: key %q -> %v, model %d\ntrie: %s\nregions: %+v",
							trial, k, got, want, tr.String(), m.regions)
					}
				}
			}
		})
	}
}

func TestInorderLeavesIncreasing(t *testing.T) {
	tr := buildRandomTrie(7, 30)
	leaves := tr.InorderLeaves()
	if len(leaves) != tr.Cells()+1 {
		t.Fatalf("leaves %d, cells %d", len(leaves), tr.Cells())
	}
	for i := 1; i < len(leaves); i++ {
		if ascii.ComparePathBounds(leaves[i-1].Path, leaves[i].Path) >= 0 {
			t.Fatalf("bounds not increasing at %d: %q >= %q", i, leaves[i-1].Path, leaves[i].Path)
		}
	}
	if len(leaves[len(leaves)-1].Path) != 0 {
		t.Error("last leaf must carry the infinite bound")
	}
}

func TestMergeSiblings(t *testing.T) {
	tr := New(ascii, 0)
	tr.SetBoundary("m", []byte("m"), 0, 0, 1, ModeBasic)
	res := tr.Search("a")
	sib, _, ok := tr.SiblingOf(res.Pos)
	if !ok || sib != Leaf(1) {
		t.Fatalf("sibling of leaf 0: %v %v", sib, ok)
	}
	tr.MergeSiblings(res.Pos.Cell, Leaf(0))
	if tr.Cells() != 0 || tr.Search("z").Leaf != Leaf(0) {
		t.Fatalf("after merge: cells=%d", tr.Cells())
	}
	if err := tr.Check(0); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSiblingsDeep(t *testing.T) {
	tr := New(ascii, 0)
	tr.SetBoundary("g", []byte("g"), 0, 0, 1, ModeBasic)
	tr.SetBoundary("c", []byte("c"), 0, 0, 2, ModeBasic)
	tr.SetBoundary("s", []byte("s"), 1, 1, 3, ModeBasic)
	if err := tr.Check(0); err != nil {
		t.Fatal(err)
	}
	var target int32 = -1
	for i := int32(0); i < int32(tr.Cells()); i++ {
		c := tr.CellAt(i)
		if c.LP == Leaf(0) && c.RP == Leaf(2) {
			target = i
		}
	}
	if target < 0 {
		t.Fatalf("no (0,2) sibling cell in %s", tr.String())
	}
	tr.MergeSiblings(target, Leaf(0))
	if err := tr.Check(0); err != nil {
		t.Fatalf("%v in %s", err, tr.String())
	}
	for k, want := range map[string]int32{"a": 0, "e": 0, "m": 1, "x": 3} {
		if got := tr.Search(k).Leaf; got != Leaf(want) {
			t.Errorf("%q -> %v, want %d", k, got, want)
		}
	}
}

func TestRepointAndCollapse(t *testing.T) {
	tr := New(ascii, 0)
	tr.SetBoundary("g", []byte("g"), 0, 0, 1, ModeTHCL)
	tr.SetBoundary("s", []byte("s"), 1, 1, 2, ModeTHCL)
	// THCL merge of buckets 1 and 2: repoint 2's leaves to 1.
	n := tr.RepointLeaves(tr.RunAt("z").Leaves, 1)
	if n != 1 {
		t.Fatalf("repointed %d", n)
	}
	if tr.LeafCount(1) != 2 || tr.LeafCount(2) != 0 {
		t.Fatalf("counts 1:%d 2:%d", tr.LeafCount(1), tr.LeafCount(2))
	}
	if err := tr.Check(0); err != nil {
		t.Fatal(err)
	}
	removed := tr.Collapse()
	if removed != 1 {
		t.Fatalf("collapsed %d cells, want 1", removed)
	}
	for k, want := range map[string]int32{"a": 0, "m": 1, "z": 1} {
		if got := tr.Search(k).Leaf; got != Leaf(want) {
			t.Errorf("%q -> %v, want %d", k, got, want)
		}
	}
	if err := tr.Check(0); err != nil {
		t.Fatal(err)
	}
}

func TestFreeToNil(t *testing.T) {
	tr := New(ascii, 0)
	tr.SetBoundary("g", []byte("g"), 0, 0, 1, ModeBasic)
	res := tr.Search("z")
	tr.FreeToNil(res.Pos)
	if tr.NilLeaves() != 1 {
		t.Fatalf("nil leaves %d", tr.NilLeaves())
	}
	if !tr.Search("z").Leaf.IsNil() {
		t.Error("freed leaf should be nil")
	}
	tr.AllocNil(tr.Search("z").Pos, 5)
	if tr.Search("z").Leaf != Leaf(5) {
		t.Error("realloc failed")
	}
}

// buildRandomTrie creates a THCL trie with roughly n buckets for
// restructuring tests.
func buildRandomTrie(seed int64, n int) *Trie {
	rng := rand.New(rand.NewSource(seed))
	tr := New(ascii, 0)
	next := int32(1)
	for step := 0; step < n*4 && int(next) < n; step++ {
		k := randKey(rng)
		res := tr.Search(k)
		if res.Leaf.IsNil() || (len(res.Path) != 0 && ascii.ComparePathBounds([]byte(k), res.Path) >= 0) {
			continue
		}
		tr.SetBoundary(k, []byte(k), res.Leaf.Addr(), res.Leaf.Addr(), next, ModeTHCL)
		next++
	}
	return tr
}

func sameRouting(t *testing.T, a, b *Trie, seed int64, probes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < probes; i++ {
		k := randKey(rng)
		ga, gb := a.Search(k).Leaf, b.Search(k).Leaf
		if ga != gb {
			t.Fatalf("routing differs for %q: %v vs %v\nA: %s\nB: %s", k, ga, gb, a.String(), b.String())
		}
	}
}

func TestSplitAtPreservesInorder(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tr := buildRandomTrie(seed, 20)
		if tr.Cells() < 3 {
			continue
		}
		r := tr.ChooseSplitNode()
		left, right, cell := tr.SplitAt(r)
		if left.Cells()+right.Cells() != tr.Cells()-1 {
			t.Fatalf("cells %d+%d != %d-1", left.Cells(), right.Cells(), tr.Cells())
		}
		got := append(left.InorderLeafPtrs(), right.InorderLeafPtrs()...)
		want := tr.InorderLeaves()
		if len(got) != len(want) {
			t.Fatalf("leaf count %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].Leaf {
				t.Fatalf("leaf %d: %v, want %v", i, got[i], want[i].Leaf)
			}
		}
		// Grafting back is search-equivalent to the original.
		back := Graft(cell, left, right)
		if err := back.Check(0); err != nil {
			t.Fatalf("seed %d: graft: %v", seed, err)
		}
		sameRouting(t, tr, back, seed+100, 300)
	}
}

func TestChooseSplitNodeConditions(t *testing.T) {
	// The paper's Fig 4 discussion: (e,1) may balance as well as (h,0)
	// but fails condition (ii) because its logical parent (h,0) is in
	// the trie.
	tr := New(ascii, 0)
	tr.SetBoundary("h", []byte("h"), 0, 0, 1, ModeBasic)
	tr.SetBoundary("he", []byte("he"), 0, 0, 2, ModeBasic)
	cands := tr.splitCandidates()
	if len(cands) != 2 {
		t.Fatalf("candidates: %+v", cands)
	}
	for _, c := range cands {
		cell := tr.CellAt(c.Cell)
		switch cell.DV {
		case 'e':
			if c.Qualifies {
				t.Error("(e,1) has logical parent (h,0) in trie; must not qualify")
			}
		case 'h':
			if !c.Qualifies {
				t.Error("(h,0) must qualify")
			}
		}
	}
	r := tr.ChooseSplitNode()
	if tr.CellAt(r).DV != 'h' {
		t.Errorf("chose (%c,%d)", tr.CellAt(r).DV, tr.CellAt(r).DN)
	}
}

func TestBalancedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := buildRandomTrie(seed, 30)
		bal := tr.Balanced()
		if bal.Cells() != tr.Cells() {
			t.Fatalf("balanced trie has %d cells, want %d", bal.Cells(), tr.Cells())
		}
		if err := bal.Check(0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameRouting(t, tr, bal, seed+1000, 400)
	}
}

func TestBalancedImprovesSkew(t *testing.T) {
	// A maximally right-skewed trie (ascending single-digit boundaries)
	// must get much shallower.
	tr := New(ascii, 0)
	next := int32(1)
	for d := byte('b'); d <= 'y'; d++ {
		res := tr.Search(string(d))
		tr.SetBoundary(string(d), []byte{d}, res.Leaf.Addr(), res.Leaf.Addr(), next, ModeTHCL)
		next++
	}
	bal := tr.Balanced()
	if bal.Depth() >= tr.Depth() {
		t.Errorf("balanced depth %d, original %d", bal.Depth(), tr.Depth())
	}
	sameRouting(t, tr, bal, 1, 500)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr := buildRandomTrie(seed, 25)
		buf := tr.AppendBinary(nil)
		back, n, err := DecodeBinary(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if back.Cells() != tr.Cells() || back.NilLeaves() != tr.NilLeaves() {
			t.Fatalf("cells %d/%d nils %d/%d", back.Cells(), tr.Cells(), back.NilLeaves(), tr.NilLeaves())
		}
		if err := back.Check(0); err != nil {
			t.Fatal(err)
		}
		sameRouting(t, tr, back, seed, 200)
	}
}

func TestDecodeBinaryErrors(t *testing.T) {
	if _, _, err := DecodeBinary(nil); err == nil {
		t.Error("nil buffer must fail")
	}
	if _, _, err := DecodeBinary(make([]byte, 16)); err == nil {
		t.Error("bad magic must fail")
	}
	tr := buildRandomTrie(1, 10)
	buf := tr.AppendBinary(nil)
	if _, _, err := DecodeBinary(buf[:len(buf)-1]); err == nil {
		t.Error("truncated buffer must fail")
	}
}

func TestPaperBytes(t *testing.T) {
	tr := buildRandomTrie(3, 15)
	if tr.PaperBytes() != tr.Cells()*6 {
		t.Errorf("PaperBytes %d, cells %d", tr.PaperBytes(), tr.Cells())
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	tr := New(ascii, 0)
	tr.SetBoundary("g", []byte("g"), 0, 0, 1, ModeBasic)
	tr.SetBoundary("s", []byte("s"), 1, 1, 2, ModeBasic)
	tr.cells[0].RP = Edge(0) // cycle
	if err := tr.Check(0); err == nil {
		t.Error("cycle not detected")
	}
}

func TestCheckDetectsBadCounts(t *testing.T) {
	tr := New(ascii, 0)
	tr.SetBoundary("g", []byte("g"), 0, 0, 1, ModeBasic)
	tr.leafCount[1] = 9
	if err := tr.Check(0); err == nil {
		t.Error("count mismatch not detected")
	}
}

func TestDumpFormats(t *testing.T) {
	tr := New(ascii, 0)
	tr.SetBoundary("i", []byte("i"), 0, 0, 1, ModeBasic)
	if s := tr.DumpCells(); !strings.Contains(s, "i") {
		t.Errorf("DumpCells: %s", s)
	}
	if s := tr.DumpLeaves(); !strings.Contains(s, "i->0") || !strings.Contains(s, ".->1") {
		t.Errorf("DumpLeaves: %s", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := buildRandomTrie(5, 10)
	cl := tr.Clone()
	before := tr.String()
	res := cl.Search("zz")
	if !res.Leaf.IsNil() && len(res.Path) == 0 {
		cl.SetBoundary("zz", []byte("zz"), res.Leaf.Addr(), res.Leaf.Addr(), 99, ModeTHCL)
	}
	if tr.String() != before {
		t.Error("mutating clone changed original")
	}
}

// TestReconstruct rebuilds tries from their in-order leaf sequences (the
// TOR83 recovery the paper's conclusion describes) and checks equivalence.
func TestReconstruct(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := buildRandomTrie(seed, 25)
		leaves := tr.InorderLeaves()
		bounds := make([][]byte, len(leaves))
		ptrs := make([]Ptr, len(leaves))
		for i, lp := range leaves {
			bounds[i] = lp.Path
			ptrs[i] = lp.Leaf
		}
		back, err := Reconstruct(ascii, bounds, ptrs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if back.Cells() != tr.Cells() {
			t.Fatalf("seed %d: reconstructed %d cells, want %d", seed, back.Cells(), tr.Cells())
		}
		if err := back.Check(0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameRouting(t, tr, back, seed+50, 400)
		if back.Depth() > tr.Depth() {
			t.Logf("seed %d: reconstructed depth %d > original %d", seed, back.Depth(), tr.Depth())
		}
	}
}

// TestReconstructBalancesChains: a linear trie (worst case) reconstructs
// into the same structure (chains admit a single valid boundary per
// level), while mixed shapes rebalance.
func TestReconstructChain(t *testing.T) {
	tr := New(ascii, 0)
	tr.SetBoundary("dddd", []byte("dddd"), 0, 0, 1, ModeTHCL)
	leaves := tr.InorderLeaves()
	bounds := make([][]byte, len(leaves))
	ptrs := make([]Ptr, len(leaves))
	for i, lp := range leaves {
		bounds[i] = lp.Path
		ptrs[i] = lp.Leaf
	}
	back, err := Reconstruct(ascii, bounds, ptrs)
	if err != nil {
		t.Fatal(err)
	}
	sameRouting(t, tr, back, 1, 300)
}

func TestReconstructErrors(t *testing.T) {
	if _, err := Reconstruct(ascii, nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Reconstruct(ascii, [][]byte{[]byte("a")}, []Ptr{Leaf(0)}); err == nil {
		t.Error("non-infinite final bound accepted")
	}
	if _, err := Reconstruct(ascii,
		[][]byte{[]byte("b"), []byte("a"), nil},
		[]Ptr{Leaf(0), Leaf(1), Leaf(2)}); err == nil {
		t.Error("decreasing bounds accepted")
	}
	if _, err := Reconstruct(ascii, [][]byte{[]byte("a")}, []Ptr{Leaf(0), Leaf(1)}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDepthAndTotalLeafDepth(t *testing.T) {
	tr := New(ascii, 0)
	if tr.Depth() != 0 || tr.TotalLeafDepth() != 0 {
		t.Fatal("fresh trie depth not 0")
	}
	tr.SetBoundary("g", []byte("g"), 0, 0, 1, ModeBasic)
	if tr.Depth() != 1 || tr.TotalLeafDepth() != 2 {
		t.Fatalf("depth %d total %d", tr.Depth(), tr.TotalLeafDepth())
	}
}

// TestRotateToSiblingsProperties: for every rotatable couple of random
// tries, performing the rotations yields a valid, search-equivalent trie
// with the couple's leaves sharing one cell; blocked couples error out
// without mutating anything.
func TestRotateToSiblingsProperties(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		tr := buildRandomTrie(seed, 20)
		for idx, c := range tr.Couples() {
			cl := tr.Clone()
			err := cl.RotateToSiblings(c.Separator)
			if c.Rotatable != (err == nil) {
				t.Fatalf("seed %d couple %d: Rotatable=%v but RotateToSiblings err=%v", seed, idx, c.Rotatable, err)
			}
			if err != nil {
				continue
			}
			cell := cl.CellAt(c.Separator)
			if cell.LP != c.Left || cell.RP != c.Right {
				t.Fatalf("seed %d couple %d: cell holds (%v,%v), want (%v,%v)",
					seed, idx, cell.LP, cell.RP, c.Left, c.Right)
			}
			if err := cl.Check(0); err != nil {
				t.Fatalf("seed %d couple %d: %v", seed, idx, err)
			}
			if cl.Cells() != tr.Cells() {
				t.Fatalf("rotation changed the cell count")
			}
			sameRouting(t, tr, cl, seed*31+int64(idx), 250)
			// The couple can now merge like ordinary siblings.
			if !c.Left.IsNil() && !c.Right.IsNil() {
				cl.MergeSiblings(c.Separator, c.Left)
				if err := cl.Check(0); err != nil {
					t.Fatalf("seed %d couple %d post-merge: %v", seed, idx, err)
				}
			}
		}
	}
}

// TestCouplesCounts: couples = leaves-1; siblings are a subset of the
// rotatable set.
func TestCouplesCounts(t *testing.T) {
	tr := buildRandomTrie(3, 25)
	couples := tr.Couples()
	if len(couples) != tr.Leaves()-1 {
		t.Fatalf("%d couples for %d leaves", len(couples), tr.Leaves())
	}
	for i, c := range couples {
		if c.Siblings && !c.Rotatable {
			t.Fatalf("couple %d: siblings but not rotatable", i)
		}
	}
}

// TestBalancedCanonicalEquivalence: the canonical-form balancing (first
// technique of Section 2.6) is equivalent and comparably shallow to the
// recursive-splitting one.
func TestBalancedCanonicalEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tr := buildRandomTrie(seed, 30)
		canon, err := tr.BalancedCanonical()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if canon.Cells() != tr.Cells() {
			t.Fatalf("seed %d: %d cells, want %d", seed, canon.Cells(), tr.Cells())
		}
		if err := canon.Check(0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameRouting(t, tr, canon, seed+2000, 400)
		rec := tr.Balanced()
		if canon.Depth() > rec.Depth()+3 {
			t.Errorf("seed %d: canonical depth %d far above recursive %d", seed, canon.Depth(), rec.Depth())
		}
	}
}

// TestTombstoning: marked-dead merges (Section 2.4's concurrency-friendly
// option) keep searches correct, exclude dead cells from M, and Vacuum
// compacts back to the physical minimum.
func TestTombstoning(t *testing.T) {
	tr := buildRandomTrie(9, 25)
	tr.SetTombstoning(true)
	live := tr.Cells()
	merged := 0
	// Merge every sibling pair we can find.
	for i := 0; i < 6; i++ {
		var target int32 = -1
		var keep Ptr
		for ci := int32(0); ci < int32(tr.TableCells()); ci++ {
			c := tr.CellAt(ci)
			if c.DN != -1 && c.LP.IsLeaf() && c.RP.IsLeaf() && !c.LP.IsNil() && !c.RP.IsNil() {
				target, keep = ci, c.LP
				break
			}
		}
		if target < 0 {
			break
		}
		tr.MergeSiblings(target, keep)
		merged++
		if err := tr.Check(0); err != nil {
			t.Fatalf("after tombstone merge %d: %v", merged, err)
		}
	}
	if merged == 0 {
		t.Skip("no sibling pairs in this trie")
	}
	if tr.DeadCells() != merged {
		t.Fatalf("dead cells %d, merged %d", tr.DeadCells(), merged)
	}
	if tr.Cells() != live-merged {
		t.Fatalf("live cells %d, want %d", tr.Cells(), live-merged)
	}
	if tr.TableCells() != live {
		t.Fatalf("table cells %d, want %d (no physical removal)", tr.TableCells(), live)
	}
	// Serialization hides the tombstones.
	back, _, err := DecodeBinary(tr.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if back.Cells() != tr.Cells() || back.TableCells() != tr.Cells() {
		t.Fatalf("serialized view: %d/%d cells", back.Cells(), back.TableCells())
	}
	sameRouting(t, tr, back, 9, 300)
	// Vacuum compacts in place and preserves routing.
	pre := tr.Clone()
	if got := tr.Vacuum(); got != merged {
		t.Fatalf("vacuum reclaimed %d, want %d", got, merged)
	}
	if tr.TableCells() != tr.Cells() {
		t.Fatalf("table %d != live %d after vacuum", tr.TableCells(), tr.Cells())
	}
	if err := tr.Check(0); err != nil {
		t.Fatal(err)
	}
	sameRouting(t, pre, tr, 10, 300)
}

// TestSearchAddrAgreesWithSearch: the allocation-free lookup returns the
// same leaf as the full search on random tries and keys.
func TestSearchAddrAgreesWithSearch(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tr := buildRandomTrie(seed, 25)
		rng := rand.New(rand.NewSource(seed + 300))
		for i := 0; i < 500; i++ {
			k := randKey(rng)
			if got, want := tr.SearchAddr(k), tr.Search(k).Leaf; got != want {
				t.Fatalf("seed %d: SearchAddr(%q) = %v, Search = %v", seed, k, got, want)
			}
		}
	}
}

// TestWalkLeavesFromPrunes: the pruned walk visits the same suffix of
// leaves as the full walk, starting at from's leaf.
func TestWalkLeavesFromPrunes(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr := buildRandomTrie(seed, 25)
		rng := rand.New(rand.NewSource(seed + 77))
		for i := 0; i < 50; i++ {
			from := randKey(rng)
			var want []Ptr
			started := false
			for _, lp := range tr.InorderLeaves() {
				if !started && (len(lp.Path) == 0 || ascii.KeyLEBound(from, lp.Path)) {
					started = true
				}
				if started {
					want = append(want, lp.Leaf)
				}
			}
			var got []Ptr
			tr.WalkLeavesFrom(from, nil, func(lp LeafPos) bool {
				if len(lp.Path) > 0 && !ascii.KeyLEBound(from, lp.Path) {
					return true // boundary guard, as Range applies
				}
				got = append(got, lp.Leaf)
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("seed %d from %q: %d leaves, want %d", seed, from, len(got), len(want))
			}
			for q := range want {
				if got[q] != want[q] {
					t.Fatalf("seed %d from %q: leaf %d is %v, want %v", seed, from, q, got[q], want[q])
				}
			}
		}
	}
}

// TestWalkLeavesBackFrom: the descending walk from the end is the full
// in-order walk reversed, and from any key it starts at Search(key)'s leaf
// and visits exactly the leaves up to it, in descending order.
func TestWalkLeavesBackFrom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tr := buildRandomTrie(seed, 25)
		all := tr.InorderLeaves()
		var back []LeafPos
		tr.WalkLeavesBackFrom("", func(lp LeafPos) bool {
			back = append(back, lp)
			return true
		})
		slices.Reverse(back)
		if !sameLeaves(back, all) {
			t.Fatalf("seed %d: reverse walk from the end differs from InorderLeaves reversed", seed)
		}
		rng := rand.New(rand.NewSource(seed + 91))
		for i := 0; i < 100; i++ {
			k := randKey(rng)
			res := tr.Search(k)
			at := slices.IndexFunc(all, func(lp LeafPos) bool { return lp.Pos == res.Pos })
			var got []LeafPos
			tr.WalkLeavesBackFrom(k, func(lp LeafPos) bool {
				got = append(got, lp)
				return true
			})
			if len(got) == 0 || got[0].Pos != res.Pos || !bytes.Equal(got[0].Path, res.Path) {
				t.Fatalf("seed %d: reverse walk from %q does not start at Search's leaf %+v", seed, k, res.Pos)
			}
			slices.Reverse(got)
			if !sameLeaves(got, all[:at+1]) {
				t.Fatalf("seed %d: reverse walk from %q visits %d leaves, want the %d up to its leaf", seed, k, len(got), at+1)
			}
			// A stopped walk reports false and visits nothing more.
			n := 0
			if tr.WalkLeavesBackFrom(k, func(LeafPos) bool { n++; return false }) || n != 1 {
				t.Fatalf("seed %d: stopped reverse walk from %q ran on (%d leaves)", seed, k, n)
			}
		}
	}
}

func sameLeaves(a, b []LeafPos) bool {
	return slices.EqualFunc(a, b, func(x, y LeafPos) bool {
		return x.Pos == y.Pos && x.Leaf == y.Leaf && bytes.Equal(x.Path, y.Path)
	})
}
