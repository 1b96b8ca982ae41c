package core

import (
	"fmt"

	"triehash/internal/bucket"
	"triehash/internal/obs"
	"triehash/internal/trie"
)

// maintainAfterDelete applies the configured merge policy after the record
// for key was removed from bucket addr (in-memory image b, already written
// back); res is key's search result.
func (f *File) maintainAfterDelete(key string, res trie.SearchResult, addr int32, b *bucket.Bucket) error {
	switch f.cfg.Merge {
	case MergeNone:
		return nil
	case MergeSiblings:
		return f.mergeSiblingsPolicy(res, addr, b)
	case MergeRotations:
		if err := f.mergeSiblingsPolicy(res, addr, b); err != nil {
			return err
		}
		return f.rotationPolicy(addr)
	case MergeGuaranteed:
		return f.guaranteedPolicy(key, addr, b)
	default:
		return fmt.Errorf("core: unknown merge policy %d", f.cfg.Merge)
	}
}

// mergeSiblingsPolicy is the basic method's deletion rule (Section 2.4):
// siblings (leaves sharing a cell) merge when their records fit in one
// bucket; an emptied bucket with no sibling leaf frees into a nil leaf.
func (f *File) mergeSiblingsPolicy(res trie.SearchResult, addr int32, b *bucket.Bucket) error {
	// Only probe the sibling once the bucket dips under half load; the
	// paper leaves the trigger open and this keeps deletions at one
	// extra access at most.
	if 2*b.Len() >= f.cfg.Capacity {
		return nil
	}
	sib, _, ok := f.trie.SiblingOf(res.Pos)
	if !ok {
		// No sibling leaf: only an emptied bucket can free its leaf.
		// Store first, trie second (the failure-atomicity ordering).
		if b.Len() == 0 && res.Pos != trie.RootPos {
			if err := f.st.Free(addr); err != nil {
				return err
			}
			f.trie.FreeToNil(res.Pos)
			return nil
		}
		return nil
	}
	if sib.IsNil() {
		if b.Len() == 0 {
			// Leaf next to a nil leaf: the cell collapses to nil.
			if err := f.st.Free(addr); err != nil {
				return err
			}
			f.trie.MergeSiblings(res.Pos.Cell, trie.Nil)
			return nil
		}
		return nil
	}
	other := sib.Addr()
	ob, err := f.st.Read(other)
	if err != nil {
		return err
	}
	// Merge inverse to splitting: the left bucket survives. The merged
	// bucket is written before the trie shrinks, so a failed write
	// aborts with the live file untouched.
	left, right := addr, other
	lb, rb := b, ob
	if res.Pos.Side == trie.SideRight {
		left, right = other, addr
		lb, rb = ob, b
	}
	if !f.mergeFits(lb, rb, rb.Bound()) {
		return nil
	}
	for i := 0; i < rb.Len(); i++ {
		r := rb.At(i)
		lb.Put(r.Key, r.Value)
	}
	lb.SetBound(rb.Bound()) // the survivor covers the absorbed range
	if err := f.st.Write(left, lb); err != nil {
		return err
	}
	f.trie.MergeSiblings(res.Pos.Cell, trie.Leaf(left))
	if err := f.st.Free(right); err != nil {
		return err
	}
	f.emit(obs.EvMerge, right, left, "sibling merge")
	return nil
}

// guaranteedPolicy is THCL's deletion rule (Section 4.3): when a bucket
// falls under 50% load it merges with a neighbour if the union fits, or
// borrows keys from a neighbour otherwise — the same guarantee a B-tree
// gives. Shared leaves make any two successive buckets mergeable. The
// deleted key still maps to addr, so it locates addr's leaf run and both
// neighbours in O(depth + run).
func (f *File) guaranteedPolicy(key string, addr int32, b *bucket.Bucket) error {
	if 2*b.Len() >= f.cfg.Capacity {
		return nil
	}
	run := f.trie.RunAt(key)
	pred, succ := run.Neighbors()
	if pred < 0 && succ < 0 {
		return nil // last bucket of the file: no guarantee possible (nor needed)
	}
	// Prefer whichever neighbour allows a full merge; otherwise borrow
	// from the fuller one.
	var (
		nbAddr  int32 = -1
		nb      *bucket.Bucket
		nbIsSuc bool
	)
	if succ >= 0 {
		sb, err := f.st.Read(succ)
		if err != nil {
			return err
		}
		if f.mergeFits(sb, b, nil) {
			return f.mergeInto(addr, b, succ, sb, true, run.Leaves)
		}
		nbAddr, nb, nbIsSuc = succ, sb, true
	}
	if pred >= 0 {
		pb, err := f.st.Read(pred)
		if err != nil {
			return err
		}
		if f.mergeFits(pb, b, b.Bound()) {
			return f.mergeInto(addr, b, pred, pb, false, run.Leaves)
		}
		if nb == nil || pb.Len() > nb.Len() {
			nbAddr, nb, nbIsSuc = pred, pb, false
		}
	}
	if nb == nil {
		return nil
	}
	return f.borrow(addr, b, nbAddr, nb, nbIsSuc)
}

// mergeInto moves every record of bucket addr into neighbour nbAddr,
// repoints run — addr's leaves, as trie.RunAt found them — and frees the
// bucket. With CollapseOnMerge the now-redundant cells are removed,
// otherwise they stay (the paper's preferred trade-off for concurrency).
func (f *File) mergeInto(addr int32, b *bucket.Bucket, nbAddr int32, nb *bucket.Bucket, nbIsSucc bool, run []trie.LeafPos) error {
	for i := 0; i < b.Len(); i++ {
		r := b.At(i)
		nb.Put(r.Key, r.Value)
	}
	if !nbIsSucc {
		// A predecessor absorbing addr extends upward to addr's bound.
		nb.SetBound(b.Bound())
	}
	if err := f.st.Write(nbAddr, nb); err != nil {
		return err
	}
	f.trie.RepointLeaves(run, nbAddr)
	if f.cfg.CollapseOnMerge {
		f.trie.Collapse()
	}
	if err := f.st.Free(addr); err != nil {
		return err
	}
	f.emit(obs.EvMerge, addr, nbAddr, "guaranteed-load merge")
	return nil
}

// borrow moves keys from neighbour nbAddr into the underflowing bucket
// addr until both hold at least half the total, shifting the partition
// boundary with the same SetBoundary machinery splits use.
func (f *File) borrow(addr int32, b *bucket.Bucket, nbAddr int32, nb *bucket.Bucket, nbIsSucc bool) error {
	total := b.Len() + nb.Len()
	target := total / 2
	q := target - b.Len() // keys to pull from the neighbour
	if q < 1 {
		return nil
	}
	if q >= nb.Len() {
		q = nb.Len() - 1
	}
	K := nb.Keys()
	undo := b.Clone()    // compensation image if the giver's write fails
	nbundo := nb.Clone() // restore image if the byte gate refuses the shift
	var s []byte
	var splitKey string
	var low, high int32
	if nbIsSucc {
		// Pull the successor's lowest q keys down: the boundary
		// between addr and succ moves up to just under key q.
		s = f.cfg.Alphabet.SplitString(K[q-1], K[q])
		splitKey, low, high = K[q-1], addr, nbAddr
		moved := nb.SplitOff(func(k string) bool { return !f.cfg.Alphabet.KeyLEBound(k, s) })
		b.Absorb(moved)
		b.SetBound(s)
	} else {
		// Pull the predecessor's highest q keys up: the boundary
		// between pred and addr moves down.
		m := nb.Len() - q
		s = f.cfg.Alphabet.SplitString(K[m-1], K[m])
		splitKey, low, high = K[m-1], nbAddr, addr
		moved := nb.SplitOff(func(k string) bool { return f.cfg.Alphabet.KeyLEBound(k, s) })
		b.Absorb(moved)
		nb.SetBound(s)
	}
	if !f.pageFits(b) || !f.pageFits(nb) {
		// Byte gate: the rebalanced images would not encode into their
		// slots. Restore both in-memory images and leave the underflow for
		// the next deletion to retry (the load guarantee yields to the slot
		// size, exactly as an over-budget merge does).
		*b = *undo
		*nb = *nbundo
		return nil
	}
	// Receiver first, giver second, trie last (the split ordering); on a
	// giver failure the receiver is restored best-effort.
	if err := f.st.Write(addr, b); err != nil {
		return err
	}
	if err := f.st.Write(nbAddr, nb); err != nil {
		_ = f.st.Write(addr, undo)
		return err
	}
	f.trie.SetBoundary(splitKey, s, nbAddr, low, high, trie.ModeTHCL)
	if f.cfg.CollapseOnMerge {
		f.trie.Collapse()
	}
	f.emit(obs.EvBorrow, addr, nbAddr, "")
	return nil
}

// rotationPolicy is the Section 3.3 refinement for the basic method: when
// the underflowing bucket still exists and its couple with a neighbour
// fits in one bucket, valid rotations make the two leaves siblings and
// the ordinary merge applies.
func (f *File) rotationPolicy(addr int32) error {
	if f.trie.LeafCount(addr) == 0 {
		return nil // the sibling policy already merged or freed it
	}
	b, err := f.st.Read(addr)
	if err != nil {
		return err
	}
	if 2*b.Len() >= f.cfg.Capacity {
		return nil
	}
	for _, c := range f.trie.Couples() {
		if !c.Rotatable || c.Siblings || c.Left.IsNil() || c.Right.IsNil() {
			continue
		}
		if c.Left.Addr() != addr && c.Right.Addr() != addr {
			continue
		}
		other := c.Left.Addr()
		if other == addr {
			other = c.Right.Addr()
		}
		ob, err := f.st.Read(other)
		if err != nil {
			return err
		}
		// Merge into the left bucket, inverse to splitting; write the
		// survivor before any trie change (rotations are semantically
		// neutral, so they may follow the write).
		left, lb := c.Left.Addr(), b
		right, rb := c.Right.Addr(), ob
		if left == other {
			lb, rb = ob, b
		}
		if !f.mergeFits(lb, rb, rb.Bound()) {
			continue
		}
		for i := 0; i < rb.Len(); i++ {
			r := rb.At(i)
			lb.Put(r.Key, r.Value)
		}
		lb.SetBound(rb.Bound())
		if err := f.st.Write(left, lb); err != nil {
			return err
		}
		if err := f.trie.RotateToSiblings(c.Separator); err != nil {
			return err // Rotatable promised success; a failure is a bug
		}
		f.trie.MergeSiblings(c.Separator, trie.Leaf(left))
		if err := f.st.Free(right); err != nil {
			return err
		}
		f.emit(obs.EvMerge, right, left, "rotation merge")
		return nil
	}
	return nil
}
