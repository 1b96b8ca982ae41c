package trie

import "fmt"

// FreeToNil turns the leaf at pos into the nil leaf. The basic method uses
// it when deletions empty a bucket that has no sibling leaf (Section 2.4).
func (t *Trie) FreeToNil(pos Pos) {
	p := t.at(pos)
	if !p.IsLeaf() || p.IsNil() {
		panic(fmt.Sprintf("trie: FreeToNil: position %+v holds %s", pos, p))
	}
	t.setPtr(pos, Nil)
}

// SiblingOf returns, for a leaf at pos, the other pointer of the same cell
// if that pointer is also a leaf, together with its position. ok is false
// when pos is the root slot or when the other side is an edge. Siblings are
// the only pairs the basic method may merge (Section 2.4).
func (t *Trie) SiblingOf(pos Pos) (sib Ptr, sibPos Pos, ok bool) {
	if pos.Side == SideRoot {
		return 0, Pos{}, false
	}
	c := t.cells[pos.Cell]
	var other Ptr
	var side Side
	if pos.Side == SideLeft {
		other, side = c.RP, SideRight
	} else {
		other, side = c.LP, SideLeft
	}
	if !other.IsLeaf() {
		return 0, Pos{}, false
	}
	return other, Pos{Cell: pos.Cell, Side: side}, true
}

// MergeSiblings removes cell ci, whose two pointers must both be leaves,
// replacing it in its parent slot by a single leaf carrying keep. This is
// the trie shrink that accompanies a bucket merge: the right bucket's keys
// move into the left one and keep is normally the left leaf's address (or
// the surviving non-nil address when one side is nil).
//
// With tombstoning enabled the cell is only marked dead instead of being
// physically removed — the approach Section 2.4 prefers for concurrency
// control, since removal moves the table's last cell into the hole, which
// would invalidate a concurrent reader's position. Vacuum reclaims dead
// cells later.
func (t *Trie) MergeSiblings(ci int32, keep Ptr) {
	c := t.cells[ci]
	if !c.LP.IsLeaf() || !c.RP.IsLeaf() {
		panic(fmt.Sprintf("trie: MergeSiblings: cell %d has non-leaf children (%s, %s)", ci, c.LP, c.RP))
	}
	parent := t.findReferrer(ci)
	// Clear both leaf slots for accounting, then collapse.
	t.setPtr(Pos{Cell: ci, Side: SideLeft}, Nil)
	t.setPtr(Pos{Cell: ci, Side: SideRight}, Nil)
	t.nilLeaves -= 2 // the two placeholders vanish with the cell
	t.setPtr(parent, keep)
	if t.tombstoning {
		t.markDead(ci)
		return
	}
	t.removeCell(ci)
}

// SetTombstoning switches between physical cell removal (the default; the
// paper's "physical shrinking of the table of cells") and marking deleted
// cells dead. Dead cells are excluded from Cells() and reclaimed by
// Vacuum.
func (t *Trie) SetTombstoning(on bool) { t.tombstoning = on }

// DeadCells returns the number of tombstoned cells awaiting Vacuum.
func (t *Trie) DeadCells() int { return int(t.dead) }

// markDead tombstones cell ci: the cell stays in the table (so concurrent
// cursors over cell indexes stay valid) but is unreachable and uncounted.
func (t *Trie) markDead(ci int32) {
	if t.tracer != nil {
		panic("trie: markDead on a traced trie (the arena mirror requires an append-only cell table)")
	}
	c := &t.cells[ci]
	c.LP, c.RP = Nil, Nil // already nil-accounted by the caller
	c.DV = 0
	c.DN = deadDN
	t.dead++
}

// deadDN marks a tombstoned cell; no live cell can carry it.
const deadDN int32 = -1

// Vacuum physically removes every tombstoned cell, compacting the table
// in one pass with edge remapping (to be run when no concurrent readers
// hold positions, e.g. at load or checkpoint time). It returns the number
// of cells reclaimed.
func (t *Trie) Vacuum() int {
	if t.tracer != nil {
		panic("trie: Vacuum on a traced trie (the arena mirror requires an append-only cell table)")
	}
	if t.dead == 0 {
		return 0
	}
	remap := make([]int32, len(t.cells))
	live := make([]Cell, 0, len(t.cells)-int(t.dead))
	for i, c := range t.cells {
		if c.DN == deadDN {
			remap[i] = -1
			continue
		}
		remap[i] = int32(len(live))
		live = append(live, c)
	}
	fix := func(p Ptr) Ptr {
		if p.IsEdge() {
			return Edge(remap[p.Cell()])
		}
		return p
	}
	for i := range live {
		live[i].LP = fix(live[i].LP)
		live[i].RP = fix(live[i].RP)
	}
	t.root = fix(t.root)
	reclaimed := len(t.cells) - len(live)
	t.cells = live
	t.dead = 0
	return reclaimed
}

// RepointLeaves makes the given leaves — a bucket's run, as RunAt
// returns it — carry bucket address to instead, returning how many were
// repointed. THCL bucket merging (Section 4.3) uses it: the freed bucket's
// leaves simply join the survivor, with node removal decoupled and
// optional.
func (t *Trie) RepointLeaves(run []LeafPos, to int32) int {
	for _, lp := range run {
		t.SetLeaf(lp.Pos, to)
	}
	return len(run)
}

// Collapse removes every cell both of whose pointers are leaves carrying
// the same address (or one of which is nil next to a leaf), repeating until
// no such cell remains, and returns the number of cells removed. THCL node
// merging (Sections 4.3–4.4) is this operation; the paper notes it may be
// skipped entirely, trading trie size for simpler concurrency.
func (t *Trie) Collapse() int {
	removed := 0
	for {
		found := int32(-1)
		var keep Ptr
		for i := range t.cells {
			c := t.cells[i]
			if !c.LP.IsLeaf() || !c.RP.IsLeaf() {
				continue
			}
			switch {
			case c.LP.IsNil() && c.RP.IsNil():
				found, keep = int32(i), Nil
			case !c.LP.IsNil() && !c.RP.IsNil() && c.LP.Addr() == c.RP.Addr():
				found, keep = int32(i), c.LP
			}
			if found >= 0 {
				break
			}
		}
		if found < 0 {
			return removed
		}
		t.MergeSiblings(found, keep)
		removed++
	}
}

// findReferrer locates the pointer slot holding an edge to cell ci.
func (t *Trie) findReferrer(ci int32) Pos {
	if t.root.IsEdge() && t.root.Cell() == ci {
		return RootPos
	}
	for i := range t.cells {
		if int32(i) == ci {
			continue
		}
		if t.cells[i].LP.IsEdge() && t.cells[i].LP.Cell() == ci {
			return Pos{Cell: int32(i), Side: SideLeft}
		}
		if t.cells[i].RP.IsEdge() && t.cells[i].RP.Cell() == ci {
			return Pos{Cell: int32(i), Side: SideRight}
		}
	}
	panic(fmt.Sprintf("trie: cell %d has no referrer", ci))
}

// removeCell deletes cell ci from the table by moving the last cell into
// its slot (the paper's physical shrinking of the table of cells) and
// fixing the edge that referred to the moved cell.
func (t *Trie) removeCell(ci int32) {
	if t.tracer != nil {
		panic("trie: removeCell on a traced trie (the arena mirror requires an append-only cell table)")
	}
	last := int32(len(t.cells) - 1)
	if ci != last {
		t.cells[ci] = t.cells[last]
		if t.cells[last].DN != deadDN {
			// A dead cell has no referrer; live ones have exactly one.
			ref := t.findReferrer(last)
			switch ref.Side {
			case SideRoot:
				t.root = Edge(ci)
			case SideLeft:
				t.cells[ref.Cell].LP = Edge(ci)
			case SideRight:
				t.cells[ref.Cell].RP = Edge(ci)
			}
		}
	}
	t.cells = t.cells[:last]
}
