package trie

import (
	"fmt"
	"strings"
)

// LeafPos describes one leaf encountered during an in-order traversal: its
// slot position, its pointer value, and its logical path (the known digits;
// later digits are implicitly maximal). Leaves appear in ascending key-range
// order, so Path bounds are strictly increasing across a traversal and the
// last leaf's bound is the maximal path (empty Path).
type LeafPos struct {
	Pos  Pos
	Leaf Ptr
	Path []byte
}

// InorderLeaves returns every leaf of the trie in in-order (ascending key
// range). The logical path of each leaf is materialized.
func (t *Trie) InorderLeaves() []LeafPos {
	out := make([]LeafPos, 0, len(t.cells)+1)
	t.WalkLeaves(func(lp LeafPos) bool {
		out = append(out, lp)
		return true
	})
	return out
}

// WalkLeaves calls fn for each leaf in in-order until fn returns false.
func (t *Trie) WalkLeaves(fn func(LeafPos) bool) {
	t.walkLeaves(t.root, RootPos, nil, "", fn)
}

// WalkLeavesFrom is WalkLeaves starting at the leaf whose range contains
// from: subtrees whose entire key range lies below from are pruned without
// visiting them, so a range scan costs O(depth + leaves visited) instead
// of a full traversal; an empty from visits every leaf. prefix seeds the
// logical path with the digits a page-level subtrie inherits from upper
// pages under MLTH (nil for a whole trie), so every reported LeafPos
// carries its full logical path and the pruning compares full bounds. It
// reports false when fn stopped the walk.
func (t *Trie) WalkLeavesFrom(from string, prefix []byte, fn func(LeafPos) bool) bool {
	return t.walkLeaves(t.root, RootPos, prefix, from, fn)
}

// walkLeaves traverses the subtrie at pointer n located at position pos with
// logical-path prefix path, pruning left subtrees wholly below from. It
// returns false when fn aborted the walk. The path slice passed to fn is
// freshly allocated per leaf.
func (t *Trie) walkLeaves(n Ptr, pos Pos, path []byte, from string, fn func(LeafPos) bool) bool {
	if n.IsLeaf() {
		return fn(LeafPos{Pos: pos, Leaf: n, Path: append([]byte(nil), path...)})
	}
	ci := n.Cell()
	cell := t.cells[ci]
	i := int(cell.DN)
	if len(path) < i {
		panic(fmt.Sprintf("trie: malformed trie: cell %d at digit number %d reached with %d known path digits", ci, i, len(path)))
	}
	left := append(append([]byte(nil), path[:i]...), cell.DV)
	// The left subtree's entire range tops out at its bound; skip it
	// when from lies above.
	if from == "" || t.alpha.KeyLEBound(from, left) {
		if !t.walkLeaves(cell.LP, Pos{Cell: ci, Side: SideLeft}, left, from, fn) {
			return false
		}
	}
	return t.walkLeaves(cell.RP, Pos{Cell: ci, Side: SideRight}, path, from, fn)
}

// LeafPath returns the logical path of the first in-order leaf carrying
// bucket address addr, and whether one exists. The concurrent engine's
// maintenance pass uses it to derive the subtree stripe of a merge
// neighbour; any leaf of the bucket's run serves, since the stripe keys
// are advisory contention shaping, not correctness.
func (t *Trie) LeafPath(addr int32) ([]byte, bool) {
	var path []byte
	found := false
	t.WalkLeaves(func(lp LeafPos) bool {
		if !lp.Leaf.IsNil() && lp.Leaf.Addr() == addr {
			path, found = lp.Path, true
			return false
		}
		return true
	})
	return path, found
}

// InorderLeafPtrs returns every leaf pointer in in-order without computing
// logical paths. Unlike InorderLeaves it is usable on page-level subtries
// (produced by SplitAt for the multilevel scheme), whose local paths are
// fragmentary because leading digits are inherited from upper pages.
func (t *Trie) InorderLeafPtrs() []Ptr {
	out := make([]Ptr, 0, len(t.cells)+1)
	var walk func(n Ptr)
	walk = func(n Ptr) {
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		c := t.cells[n.Cell()]
		walk(c.LP)
		walk(c.RP)
	}
	walk(t.root)
	return out
}

// InorderNodes returns the cell indices of all internal nodes in in-order.
func (t *Trie) InorderNodes() []int32 {
	out := make([]int32, 0, len(t.cells))
	var walk func(n Ptr)
	walk = func(n Ptr) {
		if n.IsLeaf() {
			return
		}
		ci := n.Cell()
		walk(t.cells[ci].LP)
		out = append(out, ci)
		walk(t.cells[ci].RP)
	}
	walk(t.root)
	return out
}

// Depth returns the maximal number of internal nodes on a root-to-leaf
// path (0 for a trie with no cells).
func (t *Trie) Depth() int {
	var depth func(n Ptr) int
	depth = func(n Ptr) int {
		if n.IsLeaf() {
			return 0
		}
		c := t.cells[n.Cell()]
		l, r := depth(c.LP), depth(c.RP)
		if r > l {
			l = r
		}
		return l + 1
	}
	return depth(t.root)
}

// TotalLeafDepth returns the sum over all leaves of the number of internal
// nodes on the path to the leaf; dividing by Leaves() gives the average
// in-memory search length.
func (t *Trie) TotalLeafDepth() int {
	total := 0
	var walk func(n Ptr, d int)
	walk = func(n Ptr, d int) {
		if n.IsLeaf() {
			total += d
			return
		}
		c := t.cells[n.Cell()]
		walk(c.LP, d+1)
		walk(c.RP, d+1)
	}
	walk(t.root, 0)
	return total
}

// String renders the trie as nested parentheses with logical paths, in the
// spirit of the paper's Fig 1.c: internal nodes as (d,i) and leaves as
// bucket addresses or "nil".
func (t *Trie) String() string {
	var b strings.Builder
	var walk func(n Ptr)
	walk = func(n Ptr) {
		if n.IsLeaf() {
			b.WriteString(n.String())
			return
		}
		c := t.cells[n.Cell()]
		b.WriteByte('(')
		walk(c.LP)
		fmt.Fprintf(&b, " (%c,%d) ", c.DV, c.DN)
		walk(c.RP)
		b.WriteByte(')')
	}
	walk(t.root)
	return b.String()
}

// DumpCells renders the cell table the way the paper's Fig 1.d/1.e shows
// the standard representation: one line per cell with DV, DN, LP, RP.
func (t *Trie) DumpCells() string {
	var b strings.Builder
	b.WriteString("cell  DV  DN  LP    RP\n")
	for i, c := range t.cells {
		fmt.Fprintf(&b, "%4d  %2c  %2d  %-5s %-5s\n", i, c.DV, c.DN, c.LP, c.RP)
	}
	return b.String()
}

// DumpLeaves renders the in-order leaf sequence with logical paths, e.g.
// `i_a->1 i->3 ...`; the final leaf has the maximal path rendered as ".".
func (t *Trie) DumpLeaves() string {
	var parts []string
	for _, lp := range t.InorderLeaves() {
		path := string(lp.Path)
		if path == "" {
			path = "."
		}
		parts = append(parts, fmt.Sprintf("%s->%s", path, lp.Leaf))
	}
	return strings.Join(parts, " ")
}
