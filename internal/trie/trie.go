// Package trie implements the TH-trie of Litwin's trie hashing: a binary
// trie whose internal nodes hold (digit value, digit number) pairs and whose
// leaves are bucket addresses. The trie is stored in the paper's "standard
// representation": a flat table of cells, each holding the node value (DV,
// DN) and two tagged pointers (LP, RP) that are either leaves or edges to
// other cells. New cells are always appended, which is the property the
// paper's concurrency argument rests on.
//
// The package implements key search (Algorithm A1), trie expansion on bucket
// splits for both the basic method (Algorithm A2, with nil nodes) and the
// THCL refinement (shared leaves, no nil nodes, controlled boundaries), leaf
// merging for deletions, in-order traversal, structural validation, trie
// balancing and inorder splitting (used by multilevel trie hashing).
package trie

import (
	"fmt"
	"math"

	"triehash/internal/keys"
)

// Ptr is a tagged pointer stored in a cell: a leaf carrying a bucket
// address, an edge to another cell, or the nil leaf of the basic method.
type Ptr int32

// Nil is the nil leaf: it indicates that no bucket corresponds to the leaf.
const Nil Ptr = math.MinInt32

// Leaf returns a leaf pointer carrying bucket address a (a >= 0).
func Leaf(a int32) Ptr {
	if a < 0 {
		panic(fmt.Sprintf("trie: negative bucket address %d", a))
	}
	return Ptr(a)
}

// Edge returns an edge pointer to cell index c.
func Edge(c int32) Ptr {
	if c < 0 {
		panic(fmt.Sprintf("trie: negative cell index %d", c))
	}
	return Ptr(-c - 1)
}

// IsLeaf reports whether p is a leaf (including the nil leaf).
func (p Ptr) IsLeaf() bool { return p >= 0 || p == Nil }

// IsNil reports whether p is the nil leaf.
func (p Ptr) IsNil() bool { return p == Nil }

// IsEdge reports whether p is an edge to a cell.
func (p Ptr) IsEdge() bool { return p < 0 && p != Nil }

// Addr returns the bucket address of a (non-nil) leaf pointer.
func (p Ptr) Addr() int32 {
	if !p.IsLeaf() || p.IsNil() {
		panic(fmt.Sprintf("trie: Addr of non-leaf pointer %d", p))
	}
	return int32(p)
}

// Cell returns the cell index an edge pointer refers to.
func (p Ptr) Cell() int32 {
	if !p.IsEdge() {
		panic(fmt.Sprintf("trie: Cell of non-edge pointer %d", p))
	}
	return -int32(p) - 1
}

// String renders the pointer the way the paper's figures do.
func (p Ptr) String() string {
	switch {
	case p.IsNil():
		return "nil"
	case p.IsLeaf():
		return fmt.Sprintf("%d", p.Addr())
	default:
		return fmt.Sprintf("->%d", p.Cell())
	}
}

// Cell is one element of the standard representation: an internal trie node
// (DV, DN) together with its left and right pointers. The paper's practical
// cell size is six bytes (1+1+2+2); we use wider fields in memory and
// account for the paper's sizes in statistics.
type Cell struct {
	DV byte  // digit value
	DN int32 // digit number: position of the digit within the key
	LP Ptr   // left pointer: leaf or edge
	RP Ptr   // right pointer: leaf or edge
}

// Side identifies which pointer of a cell a position refers to.
type Side int8

const (
	// SideRoot marks the trie root position (no containing cell).
	SideRoot Side = iota
	// SideLeft is the LP of a cell.
	SideLeft
	// SideRight is the RP of a cell.
	SideRight
)

func (s Side) String() string {
	switch s {
	case SideRoot:
		return "root"
	case SideLeft:
		return "left"
	case SideRight:
		return "right"
	}
	return fmt.Sprintf("Side(%d)", int8(s))
}

// Pos addresses one pointer slot in the trie: the root slot, or one side of
// a cell.
type Pos struct {
	Cell int32 // cell index; -1 when Side == SideRoot
	Side Side
}

// RootPos is the position of the trie root slot.
var RootPos = Pos{Cell: -1, Side: SideRoot}

// Trie is a TH-trie over a digit alphabet. The zero value is not usable;
// call New.
type Trie struct {
	alpha keys.Alphabet
	cells []Cell
	root  Ptr

	// leafCount tracks, per bucket address, how many (non-nil) leaves
	// carry that address. Basic TH keeps every count at one; THCL lets
	// counts exceed one. Addresses index the slice directly.
	leafCount []int32
	nilLeaves int32

	// tombstoning switches merges from physical cell removal to marking
	// cells dead (Section 2.4's concurrency-friendly option); dead
	// counts the tombstones awaiting Vacuum.
	tombstoning bool
	dead        int32

	// tracer, when set, observes every structural mutation (cell appends
	// and pointer stores) so an external mirror — the concurrent engine's
	// atomic cell arena — can replay them in publication order. A traced
	// trie must stay append-only: operations that move or reclaim cells
	// (removeCell, Vacuum, markDead) panic while a tracer is attached.
	tracer Tracer
}

// Tracer receives the trie's structural mutations as they happen. The
// calls arrive in program order; TraceSetPtr for an edge to a fresh chain
// of cells is always preceded by the TraceAppendCell calls that built the
// chain, which is exactly the paper's fill-then-flip publication order.
type Tracer interface {
	// TraceAppendCell reports that cell ci was appended with node (dv, dn)
	// and both pointers nil.
	TraceAppendCell(ci int32, dv byte, dn int32)
	// TraceSetPtr reports that pointer slot pos now holds v.
	TraceSetPtr(pos Pos, v Ptr)
}

// SetTracer attaches (or, with nil, detaches) a structural-mutation
// tracer. While a tracer is attached the trie refuses cell removal and
// compaction, keeping the cell table strictly append-only. Clone does not
// carry the tracer over.
func (t *Trie) SetTracer(tr Tracer) { t.tracer = tr }

// New returns a trie over alphabet a whose single leaf is bucket address
// root (pass 0 for a fresh file, matching the paper's initial state of
// bucket 0 and leaf 0).
func New(a keys.Alphabet, root int32) *Trie {
	t := &Trie{alpha: a, root: Leaf(root)}
	t.bumpLeaf(Leaf(root), +1)
	return t
}

// NewEmpty returns a trie whose root is the nil leaf (an empty file with no
// bucket allocated yet).
func NewEmpty(a keys.Alphabet) *Trie {
	t := &Trie{alpha: a, root: Nil}
	t.nilLeaves = 1
	return t
}

// Alphabet returns the digit alphabet the trie was created with.
func (t *Trie) Alphabet() keys.Alphabet { return t.alpha }

// Cells returns the number of live internal nodes (cells) in the trie —
// the paper's trie size M. Tombstoned cells do not count.
func (t *Trie) Cells() int { return len(t.cells) - int(t.dead) }

// TableCells returns the physical size of the cell table, tombstones
// included.
func (t *Trie) TableCells() int { return len(t.cells) }

// CellAt returns a copy of cell i.
func (t *Trie) CellAt(i int32) Cell { return t.cells[i] }

// Root returns the root pointer.
func (t *Trie) Root() Ptr { return t.root }

// NilLeaves returns the current number of nil leaves.
func (t *Trie) NilLeaves() int { return int(t.nilLeaves) }

// LeafCount returns how many leaves currently carry bucket address a.
func (t *Trie) LeafCount(a int32) int {
	if int(a) >= len(t.leafCount) {
		return 0
	}
	return int(t.leafCount[a])
}

// Leaves returns the total number of leaves (nil leaves included). In any
// TH-trie this is the number of live cells plus one.
func (t *Trie) Leaves() int { return t.Cells() + 1 }

func (t *Trie) bumpLeaf(p Ptr, delta int32) {
	if p.IsNil() {
		t.nilLeaves += delta
		return
	}
	a := p.Addr()
	for int(a) >= len(t.leafCount) {
		t.leafCount = append(t.leafCount, 0)
	}
	t.leafCount[a] += delta
	if t.leafCount[a] < 0 {
		panic(fmt.Sprintf("trie: leaf count for bucket %d went negative", a))
	}
}

// at returns the pointer stored at position p.
func (t *Trie) at(p Pos) Ptr {
	switch p.Side {
	case SideRoot:
		return t.root
	case SideLeft:
		return t.cells[p.Cell].LP
	default:
		return t.cells[p.Cell].RP
	}
}

// setPtr stores pointer v at position p, keeping leaf counts in sync.
func (t *Trie) setPtr(p Pos, v Ptr) {
	old := t.at(p)
	if old.IsLeaf() {
		t.bumpLeaf(old, -1)
	}
	if v.IsLeaf() {
		t.bumpLeaf(v, +1)
	}
	switch p.Side {
	case SideRoot:
		t.root = v
	case SideLeft:
		t.cells[p.Cell].LP = v
	default:
		t.cells[p.Cell].RP = v
	}
	if t.tracer != nil {
		t.tracer.TraceSetPtr(p, v)
	}
}

// appendCell appends a new cell and returns its index. Pointers of the new
// cell must be wired by the caller through setPtr-equivalent accounting, so
// the cell is created with both sides nil and the two nil leaves are
// counted; callers overwrite them immediately.
func (t *Trie) appendCell(dv byte, dn int32) int32 {
	t.cells = append(t.cells, Cell{DV: dv, DN: dn, LP: Nil, RP: Nil})
	t.nilLeaves += 2
	ci := int32(len(t.cells) - 1)
	if t.tracer != nil {
		t.tracer.TraceAppendCell(ci, dv, dn)
	}
	return ci
}

// SearchResult describes where Algorithm A1 ended: the leaf pointer, the
// position holding it, the logical path of known digits to the leaf, and
// the digit index j the scan stopped at (used when search continues in a
// lower-level page under MLTH).
type SearchResult struct {
	Leaf Ptr
	Pos  Pos
	Path []byte
	J    int
}

// Bound returns the leaf's logical-path bound: the known digits, with every
// later digit implicitly maximal. Two bounds compare with keys.ComparePathBounds.
func (r SearchResult) Bound() []byte { return r.Path }

// Search runs Algorithm A1 for key c from the trie root and returns the
// leaf reached together with its logical path.
func (t *Trie) Search(c string) SearchResult {
	return t.SearchFrom(c, 0, nil)
}

// SearchFrom runs Algorithm A1 starting with digit index j and logical path
// prefix path (both inherited from upper-level pages under MLTH; pass 0 and
// nil at the top level). The path slice is copied, never aliased.
func (t *Trie) SearchFrom(c string, j int, path []byte) SearchResult {
	C := append([]byte(nil), path...)
	n := t.root
	pos := RootPos
	for n.IsEdge() {
		ci := n.Cell()
		cell := &t.cells[ci]
		i := int(cell.DN)
		goLeft := false
		if j == i {
			cj := t.alpha.Digit(c, j)
			if cj <= cell.DV {
				goLeft = true
				if cj == cell.DV {
					j++
				}
			}
		} else if j < i {
			// The key already branched strictly below an earlier
			// digit of the path; every deeper comparison resolves
			// left (see Section 2.2 of the paper).
			goLeft = true
		}
		if goLeft {
			if len(C) < i {
				panic(fmt.Sprintf("trie: malformed trie: left descent at cell %d needs %d known path digits, have %d", ci, i, len(C)))
			}
			C = append(C[:i], cell.DV)
			pos = Pos{Cell: ci, Side: SideLeft}
			n = cell.LP
		} else {
			pos = Pos{Cell: ci, Side: SideRight}
			n = cell.RP
		}
	}
	return SearchResult{Leaf: n, Pos: pos, Path: C, J: j}
}

// SearchAddr runs Algorithm A1 without materializing the logical path —
// the allocation-free lookup used by point reads, which only need the
// leaf pointer.
func (t *Trie) SearchAddr(c string) Ptr {
	leaf, _ := t.SearchAddrFrom(c, 0)
	return leaf
}

// SearchAddrFrom is SearchAddr starting with digit index j, inherited from
// upper-level pages under MLTH, and also returns the digit index the scan
// stopped at, which the search of the page below continues from. The
// descent never consults the logical path, so a multi-page point lookup
// stays allocation-free.
func (t *Trie) SearchAddrFrom(c string, j int) (Ptr, int) {
	n := t.root
	for n.IsEdge() {
		cell := &t.cells[n.Cell()]
		i := int(cell.DN)
		if j == i {
			cj := t.alpha.Digit(c, j)
			if cj <= cell.DV {
				if cj == cell.DV {
					j++
				}
				n = cell.LP
				continue
			}
			n = cell.RP
		} else if j < i {
			n = cell.LP
		} else {
			n = cell.RP
		}
	}
	return n, j
}

// Clone returns a deep copy of the trie.
func (t *Trie) Clone() *Trie {
	c := &Trie{
		alpha:       t.alpha,
		cells:       append([]Cell(nil), t.cells...),
		root:        t.root,
		leafCount:   append([]int32(nil), t.leafCount...),
		nilLeaves:   t.nilLeaves,
		tombstoning: t.tombstoning,
		dead:        t.dead,
	}
	return c
}
