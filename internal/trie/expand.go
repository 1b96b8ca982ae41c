package trie

import (
	"fmt"

	"triehash/internal/keys"
)

// Mode selects between the basic method of /LIT81/ and the THCL refinement.
type Mode int

const (
	// ModeBasic is basic trie hashing: every bucket has exactly one leaf
	// and multi-digit split strings create nil leaves (Algorithm A2).
	ModeBasic Mode = iota
	// ModeTHCL is trie hashing with controlled load: no nil leaves are
	// ever created; the right children of a multi-digit expansion all
	// carry the new bucket's address, and several leaves may point to
	// the same bucket (Section 4.1 of the paper).
	ModeTHCL
)

func (m Mode) String() string {
	if m == ModeBasic {
		return "TH"
	}
	return "THCL"
}

// ExpandStats reports what a SetBoundary call did to the trie.
type ExpandStats struct {
	NewCells     int // internal nodes appended
	NewNilLeaves int // nil leaves created (basic mode only)
	Repointed    int // existing leaves whose address changed
}

// SetBoundary installs the split string s as a new partition boundary
// inside the key range currently owned by bucket old: after the call, keys
// of that range at or below bound s map to bucket low and keys above s map
// to bucket high. splitKey is the split key c' the boundary was derived
// from (s must be a padded prefix of it); it locates the affected leaves.
//
// The one operation subsumes every trie expansion in the paper:
//
//   - basic TH split (Algorithm A2 step 3): low = old, high = new bucket N,
//     mode ModeBasic — nil right children on multi-digit expansions;
//   - THCL split (Section 4.1 steps 3.0–3.5): low = old, high = N, mode
//     ModeTHCL — shared leaves, successor leaves of old repointed to N;
//   - redistribution to the inorder successor S (Section 4.4): low = old,
//     high = S;
//   - redistribution to the inorder predecessor P: low = P, high = old.
//
// The caller must have arranged the bucket contents so that at least one
// key above s existed in old (otherwise the boundary is vacuous and the
// call panics: it would be a splitter bug).
func (t *Trie) SetBoundary(splitKey string, s []byte, old, low, high int32, mode Mode) ExpandStats {
	res := t.Search(splitKey)
	if res.Leaf.IsNil() || res.Leaf.Addr() != old {
		panic(fmt.Sprintf("trie: SetBoundary: split key %q maps to %s, not to bucket %d", splitKey, res.Leaf, old))
	}
	if mode == ModeBasic && (low != old || t.LeafCount(old) != 1) {
		panic("trie: SetBoundary: basic mode requires a single leaf per bucket and low == old")
	}

	// Fast path: bucket old has a single leaf and keeps the low side.
	// The boundary must then fall strictly inside that leaf's range.
	if t.LeafCount(old) == 1 && low == old {
		if t.alpha.ComparePathBounds(s, res.Path) >= 0 {
			panic(fmt.Sprintf("trie: SetBoundary: boundary %q does not fall below bucket %d's upper range %q", s, old, res.Path))
		}
		return t.insertChain(res.Pos, res.Path, s, low, high, mode)
	}

	// General path: take the contiguous in-order run of leaves carrying
	// old around splitKey and place the boundary within it.
	leaves := t.RunAt(splitKey).Leaves
	var st ExpandStats
	straddle := -1 // first run index whose bound exceeds s
	exact := false // boundary coincides with a leaf bound
	for q, lp := range leaves {
		cmp := t.alpha.ComparePathBounds(lp.Path, s)
		if cmp <= 0 {
			if low != old {
				t.setPtr(lp.Pos, Leaf(low))
				st.Repointed++
			}
			if cmp == 0 {
				exact = true
			}
			continue
		}
		straddle = q
		break
	}
	if straddle < 0 {
		panic(fmt.Sprintf("trie: SetBoundary: boundary %q does not fall below bucket %d's upper range", s, old))
	}
	if !exact {
		// The boundary cuts strictly into this leaf's range: expand
		// the trie there. Later leaves of the run then switch to high.
		cs := t.insertChain(leaves[straddle].Pos, leaves[straddle].Path, s, low, high, mode)
		st.NewCells += cs.NewCells
		st.NewNilLeaves += cs.NewNilLeaves
		straddle++
	}
	for _, lp := range leaves[straddle:] {
		t.setPtr(lp.Pos, Leaf(high))
		st.Repointed++
	}
	return st
}

// insertChain replaces the leaf at pos (logical path C) with the internal
// nodes for the digits of split string s that are not already on the path
// (Algorithm A2 steps 3.1–3.3 and their THCL counterparts). The bottom
// cell's children are leaves low and high; in basic mode the right children
// of upper chain cells are nil leaves, in THCL mode they carry high.
func (t *Trie) insertChain(pos Pos, C []byte, s []byte, low, high int32, mode Mode) ExpandStats {
	cp := keys.CommonPrefixLen(s, C)
	k := len(s) - cp
	if k < 1 {
		panic(fmt.Sprintf("trie: insertChain: split string %q already contained in path %q", s, C))
	}
	var st ExpandStats
	first := int32(-1)
	var prev int32 = -1
	for j := cp; j < len(s); j++ {
		ci := t.appendCell(s[j], int32(j))
		st.NewCells++
		if first < 0 {
			first = ci
		}
		if prev >= 0 {
			t.setPtr(Pos{Cell: prev, Side: SideLeft}, Edge(ci))
			if mode == ModeBasic {
				// Right child stays the nil leaf it was created
				// with; it now counts as a live nil leaf.
				st.NewNilLeaves++
			} else {
				t.setPtr(Pos{Cell: prev, Side: SideRight}, Leaf(high))
			}
		}
		prev = ci
	}
	t.setPtr(Pos{Cell: prev, Side: SideLeft}, Leaf(low))
	t.setPtr(Pos{Cell: prev, Side: SideRight}, Leaf(high))
	t.setPtr(pos, Edge(first))
	return st
}

// ExpandAt installs split string s at the single leaf at pos, whose full
// logical path (inherited upper-page digits included) is path. It is the
// entry point multilevel trie hashing uses: the caller located the leaf
// through a multi-page search, so no in-trie search is repeated here. The
// leaf keeps low on the left of the new boundary; high goes right. Only
// meaningful when the bucket at pos has a single leaf (the basic method).
func (t *Trie) ExpandAt(pos Pos, path []byte, s []byte, low, high int32, mode Mode) ExpandStats {
	if p := t.at(pos); !p.IsLeaf() || p.IsNil() {
		panic(fmt.Sprintf("trie: ExpandAt: position %+v holds %s", pos, p))
	}
	if t.alpha.ComparePathBounds(s, path) >= 0 {
		panic(fmt.Sprintf("trie: ExpandAt: boundary %q does not fall below the leaf bound %q", s, path))
	}
	return t.insertChain(pos, path, s, low, high, mode)
}

// FindLeafAddr returns the position of the first in-order leaf carrying
// address addr.
func (t *Trie) FindLeafAddr(addr int32) (Pos, bool) {
	var found Pos
	ok := false
	var walk func(n Ptr, pos Pos) bool
	walk = func(n Ptr, pos Pos) bool {
		if n.IsLeaf() {
			if !n.IsNil() && n.Addr() == addr {
				found, ok = pos, true
				return true
			}
			return false
		}
		ci := n.Cell()
		return walk(t.cells[ci].LP, Pos{Cell: ci, Side: SideLeft}) ||
			walk(t.cells[ci].RP, Pos{Cell: ci, Side: SideRight})
	}
	walk(t.root, RootPos)
	return found, ok
}

// ReplaceLeafWithCell substitutes the leaf at pos with a new internal node
// holding c's value, whose children are lp and rp. The multilevel scheme
// uses it to reinstall a split node one page level up: the page pointer
// leaf becomes a router cell over the two half-pages.
func (t *Trie) ReplaceLeafWithCell(pos Pos, c Cell, lp, rp Ptr) {
	if p := t.at(pos); !p.IsLeaf() {
		panic(fmt.Sprintf("trie: ReplaceLeafWithCell: position %+v holds %s", pos, p))
	}
	ci := t.appendCell(c.DV, c.DN)
	t.setPtr(Pos{Cell: ci, Side: SideLeft}, lp)
	t.setPtr(Pos{Cell: ci, Side: SideRight}, rp)
	t.setPtr(pos, Edge(ci))
}

// SetLeaf repoints the leaf at pos to bucket address addr. The multilevel
// THCL scheme uses it for the cross-page successor repointing of steps
// 3.4/3.5, where the run of leaves sharing a bucket spans several pages.
func (t *Trie) SetLeaf(pos Pos, addr int32) {
	if p := t.at(pos); !p.IsLeaf() {
		panic(fmt.Sprintf("trie: SetLeaf: position %+v holds %s", pos, p))
	}
	t.setPtr(pos, Leaf(addr))
}

// AllocNil assigns bucket address addr to the nil leaf at pos. This is the
// basic method's lazy bucket allocation: the first insertion that reaches a
// nil leaf appends a bucket and claims the leaf.
func (t *Trie) AllocNil(pos Pos, addr int32) {
	p := t.at(pos)
	if !p.IsNil() {
		panic(fmt.Sprintf("trie: AllocNil: position %+v holds %s, not nil", pos, p))
	}
	t.setPtr(pos, Leaf(addr))
}
