package trie

import (
	"fmt"
	"slices"
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
	t.walkLeaves(t.root, RootPos, nil, "", false, fn)
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
	return t.walkLeaves(t.root, RootPos, prefix, from, false, fn)
}

// WalkLeavesBackFrom is the descending twin of WalkLeavesFrom over the
// whole trie: it calls fn for the leaf whose range contains from and then
// for each leaf before it, in descending in-order, until fn returns
// false. Subtrees whose entire key range lies above from are pruned, so
// the walk costs O(depth + leaves visited); an empty from starts at the
// last leaf. It reports false when fn stopped the walk.
func (t *Trie) WalkLeavesBackFrom(from string, fn func(LeafPos) bool) bool {
	return t.walkLeaves(t.root, RootPos, nil, from, true, fn)
}

// walkLeaves traverses the subtrie at pointer n located at position pos with
// logical-path prefix path, in ascending in-order pruning left subtrees
// wholly below from, or with back in descending in-order pruning right
// subtrees wholly above from. It returns false when fn aborted the walk.
// The path slice passed to fn is freshly allocated per leaf.
func (t *Trie) walkLeaves(n Ptr, pos Pos, path []byte, from string, back bool, fn func(LeafPos) bool) bool {
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
	lpos, rpos := Pos{Cell: ci, Side: SideLeft}, Pos{Cell: ci, Side: SideRight}
	// The left subtree's entire range tops out at its bound and the right
	// subtree's lies above it: from's leaf is on the left exactly when
	// from falls at or below that bound.
	if !back {
		if from == "" || t.alpha.KeyLEBound(from, left) {
			if !t.walkLeaves(cell.LP, lpos, left, from, back, fn) {
				return false
			}
		}
		return t.walkLeaves(cell.RP, rpos, path, from, back, fn)
	}
	if from == "" || !t.alpha.KeyLEBound(from, left) {
		if !t.walkLeaves(cell.RP, rpos, path, from, back, fn) {
			return false
		}
	}
	return t.walkLeaves(cell.LP, lpos, left, from, back, fn)
}

// LeafRun is the contiguous in-order run of leaves one bucket owns under
// THCL, together with the leaves just before and after it.
type LeafRun struct {
	Leaves []LeafPos // the run, ascending; never empty
	// Pred and Succ are the leaves adjacent to the run; Leaf is Nil at
	// either end of the trie.
	Pred, Succ LeafPos
}

// Addr returns the bucket address the run carries (-1 for a run of nil
// leaves).
func (r LeafRun) Addr() int32 { return addrOf(r.Leaves[0].Leaf) }

// Neighbors returns the bucket addresses of the leaves just before and
// after the run: -1 at an end of the trie or next to a nil leaf.
func (r LeafRun) Neighbors() (pred, succ int32) {
	return addrOf(r.Pred.Leaf), addrOf(r.Succ.Leaf)
}

// addrOf returns the bucket address a leaf carries, -1 for the nil leaf.
func addrOf(p Ptr) int32 {
	if p.IsNil() {
		return -1
	}
	return p.Addr()
}

// RunAt returns the run of leaves carrying the bucket that key maps to,
// with the leaves just before and after it. Any key the bucket owns
// locates the same run. THCL maintenance — guaranteed-load merging,
// redistribution and boundary placement inside a shared-leaf run — needs
// nothing more, and the two walks out of key's leaf cost O(depth + run):
// a root-to-leaf descent each plus the run, never the whole trie.
func (t *Trie) RunAt(key string) LeafRun {
	r := LeafRun{Pred: LeafPos{Leaf: Nil}, Succ: LeafPos{Leaf: Nil}}
	t.WalkLeavesBackFrom(key, func(lp LeafPos) bool {
		if len(r.Leaves) > 0 && lp.Leaf != r.Leaves[0].Leaf {
			r.Pred = lp
			return false
		}
		r.Leaves = append(r.Leaves, lp)
		return true
	})
	slices.Reverse(r.Leaves)
	own, skip := r.Leaves[len(r.Leaves)-1].Leaf, true
	t.WalkLeavesFrom(key, nil, func(lp LeafPos) bool {
		if skip { // key's own leaf, already the run's last
			skip = false
			return true
		}
		if lp.Leaf != own {
			r.Succ = lp
			return false
		}
		r.Leaves = append(r.Leaves, lp)
		return true
	})
	return r
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
