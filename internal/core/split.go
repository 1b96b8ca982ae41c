package core

import (
	"fmt"

	"triehash/internal/bucket"
	"triehash/internal/keys"
	"triehash/internal/obs"
	"triehash/internal/trie"
)

// split resolves the overflow of bucket addr, whose in-memory image b holds
// Capacity+1 records (the paper's sequence B). Redistribution, when
// configured, runs first; otherwise a new bucket is appended (Algorithm A2
// step 2 and the trie expansion of step 3 / Section 4.1).
func (f *File) split(addr int32, b *bucket.Bucket) error {
	if f.cfg.Redistribution == RedistSuccessor || f.cfg.Redistribution == RedistBoth {
		ok, err := f.redistributeToSuccessor(addr, b)
		if err != nil || ok {
			return err
		}
	}
	if f.cfg.Redistribution == RedistPredecessor || f.cfg.Redistribution == RedistBoth {
		ok, err := f.redistributeToPredecessor(addr, b)
		if err != nil || ok {
			return err
		}
	}
	return f.appendSplit(addr, b)
}

// appendSplit is the normal split: a new bucket N receives every key above
// the split string.
func (f *File) appendSplit(addr int32, b *bucket.Bucket) error {
	p, err := f.prepareSplit(addr, b)
	if err != nil {
		return err
	}
	return f.finishSplit(p)
}

// preparedSplit is the store phase of a split done off to the side — the
// new bucket allocated, filled and written, the old bucket's shrunk image
// held in memory but not yet on disk — awaiting finishSplit. The
// concurrent engine prepares splits under a subtree stripe plus the bucket
// latch (splits in distinct stripes in parallel) and runs
// finishSplit under the trie flip lock, so whole-trie readers that exclude
// only the flips can never observe the shrunk old bucket before the new
// one is reachable.
type preparedSplit struct {
	addr     int32
	newAddr  int32
	splitKey string
	s        []byte
	b        *bucket.Bucket // the old bucket's shrunk image, not yet written
}

// prepareSplit performs the off-to-the-side phase of splitting bucket
// addr, whose in-memory image b holds Capacity+1 records: allocate the new
// bucket, move every key above the split string into it, and write the new
// bucket — unreachable until the flip, so nothing observable changes. The
// old bucket's store image and the trie are untouched; the caller runs
// finishSplit to publish.
func (f *File) prepareSplit(addr int32, b *bucket.Bucket) (*preparedSplit, error) {
	B := b.Keys() // the b+1 ordered keys to split (fewer on a byte-triggered split)
	splitPos, boundPos := f.splitIndices(b)
	splitKey := B[splitPos-1]
	boundKey := B[boundPos-1]
	s := f.cfg.Alphabet.SplitString(splitKey, boundKey)

	newAddr, err := f.st.Alloc()
	if err != nil {
		return nil, err
	}
	moved := b.SplitOff(func(k string) bool { return f.cfg.Alphabet.KeyLEBound(k, s) })
	if len(moved) == 0 || b.Len() == 0 {
		panic(fmt.Sprintf("core: split of bucket %d by %q moved %d of %d keys", addr, s, len(moved), len(B)))
	}
	nb := bucket.New(f.cfg.Capacity)
	nb.SetBound(newBucketBound(f.cfg.Mode, s, b.Bound()))
	nb.Absorb(moved)
	b.SetBound(s) // the old bucket's range now tops out at the split string
	// Durability and failure ordering: both buckets are written (here and
	// in finishSplit) before the in-memory trie changes, so a failed
	// write aborts the split with the live file fully consistent (the
	// store still holds the pre-split old bucket). Within the writes, the
	// new bucket goes first: a crash between them leaves the moved
	// records present twice, which Recover detects by the duplicate bound
	// and repairs by dropping the subset twin; the opposite order could
	// lose them.
	if err := f.st.Write(newAddr, nb); err != nil {
		f.freeBestEffort(newAddr)
		return nil, err
	}
	return &preparedSplit{addr: addr, newAddr: newAddr, splitKey: splitKey, s: s, b: b}, nil
}

// finishSplit publishes a prepared split: the old bucket's shrunk image is
// written and the trie expansion makes the new bucket reachable. The store
// mutation order across prepareSplit+finishSplit — alloc, write new, write
// old, flip — is exactly the pre-sharding sequence, so the crash-recovery
// reasoning carries over unchanged.
func (f *File) finishSplit(p *preparedSplit) error {
	if err := f.st.Write(p.addr, p.b); err != nil {
		f.freeBestEffort(p.newAddr)
		return err
	}
	f.commitSplit(p)
	return nil
}

// commitSplit is the trie half of finishSplit: the expansion that makes
// the new bucket reachable.
func (f *File) commitSplit(p *preparedSplit) {
	f.trie.SetBoundary(p.splitKey, p.s, p.addr, p.addr, p.newAddr, f.cfg.Mode)
	f.splits++
	f.emit(obs.EvSplit, p.addr, p.newAddr, fmt.Sprintf("split string %q", p.s))
}

// freeBestEffort releases a bucket allocated by an operation that failed
// midway; if even the free fails, the slot is remembered as abandoned —
// it holds at most duplicates of reachable records and the next Recover
// sweeps it.
func (f *File) freeBestEffort(addr int32) {
	if f.st.Free(addr) != nil {
		f.abandonedMu.Lock()
		if f.abandoned == nil {
			f.abandoned = map[int32]bool{}
		}
		f.abandoned[addr] = true
		f.abandonedMu.Unlock()
	}
}

// redistributeToSuccessor shifts the top keys of the overflowing bucket
// into its in-order successor when that bucket has room (Section 4.4),
// aiming at an even load across the two buckets. Any key of b locates the
// successor through addr's leaf run. Reports whether the overflow was
// resolved.
func (f *File) redistributeToSuccessor(addr int32, b *bucket.Bucket) (bool, error) {
	_, succ := f.trie.RunAt(b.At(0).Key).Neighbors()
	if succ < 0 {
		return false, nil
	}
	sb, err := f.st.Read(succ)
	if err != nil {
		return false, err
	}
	free := f.cfg.Capacity - sb.Len()
	if free < 1 {
		return false, nil
	}
	B := b.Keys()
	undo := sb.Clone() // compensation image if the giver's write fails
	bundo := b.Clone() // restore image if the byte gate refuses the shift
	total := len(B) + sb.Len()
	targetStay := (total + 1) / 2
	q := len(B) - targetStay // keys to move
	if q < 1 {
		q = 1
	}
	if q > free {
		q = free
	}
	// Deterministic boundary right under the q moving keys.
	m := len(B) - q // 0-based index of the split key; bound is the next key
	s := f.cfg.Alphabet.SplitString(B[m-1], B[m])
	moved := b.SplitOff(func(k string) bool { return f.cfg.Alphabet.KeyLEBound(k, s) })
	sb.Absorb(moved)
	b.SetBound(s)
	if sb.Len() > f.cfg.Capacity || b.Len() > f.cfg.Capacity {
		panic(fmt.Sprintf("core: successor redistribution overflowed: %d/%d keys", b.Len(), sb.Len()))
	}
	if !f.pageFits(sb) || !f.pageFits(b) {
		// Byte gate: the shifted images would not encode into their slots;
		// restore the giver (the receiver's image is a discarded read copy)
		// and fall through to the append split.
		*b = *bundo
		return false, nil
	}
	// Receiver first, giver second, trie last: a failure at any point
	// leaves the live file consistent (duplicated records in the
	// receiver are unreachable until the trie flips). If the giver's
	// write fails after the receiver's succeeded, restore the receiver
	// (best effort) so the store holds exactly the pre-operation state.
	if err := f.st.Write(succ, sb); err != nil {
		return false, err
	}
	if err := f.st.Write(addr, b); err != nil {
		_ = f.st.Write(succ, undo)
		return false, err
	}
	f.trie.SetBoundary(B[m-1], s, addr, addr, succ, trie.ModeTHCL)
	if f.cfg.CollapseOnMerge {
		f.trie.Collapse()
	}
	f.splits++
	f.redistributions++
	f.emit(obs.EvRedistribution, addr, succ, "to successor")
	return true, nil
}

// redistributeToPredecessor shifts the bottom keys of the overflowing
// bucket into its in-order predecessor when that bucket has room.
func (f *File) redistributeToPredecessor(addr int32, b *bucket.Bucket) (bool, error) {
	pred, _ := f.trie.RunAt(b.At(0).Key).Neighbors()
	if pred < 0 {
		return false, nil
	}
	pb, err := f.st.Read(pred)
	if err != nil {
		return false, err
	}
	free := f.cfg.Capacity - pb.Len()
	if free < 1 {
		return false, nil
	}
	B := b.Keys()
	undo := pb.Clone() // compensation image if the giver's write fails
	bundo := b.Clone() // restore image if the byte gate refuses the shift
	total := len(B) + pb.Len()
	q := total/2 - pb.Len() // keys to move down for an even load
	if q < 1 {
		q = 1
	}
	if q > free {
		q = free
	}
	if q >= len(B) {
		q = len(B) - 1
	}
	// The split key is the last moving key (the paper's m' = 1 case
	// generalized); the bounding key is the first staying one.
	s := f.cfg.Alphabet.SplitString(B[q-1], B[q])
	stay := b.SplitOff(func(k string) bool { return !f.cfg.Alphabet.KeyLEBound(k, s) })
	// SplitOff kept the high keys in b and returned the low ones.
	pb.Absorb(stay)
	pb.SetBound(s) // the predecessor's range now reaches the split string
	if pb.Len() > f.cfg.Capacity || b.Len() > f.cfg.Capacity {
		panic(fmt.Sprintf("core: predecessor redistribution overflowed: %d/%d keys", pb.Len(), b.Len()))
	}
	if !f.pageFits(pb) || !f.pageFits(b) {
		// Byte gate: restore the giver and fall through to the append split
		// (see redistributeToSuccessor).
		*b = *bundo
		return false, nil
	}
	// Receiver first, giver second, trie last (see redistributeToSuccessor).
	if err := f.st.Write(pred, pb); err != nil {
		return false, err
	}
	if err := f.st.Write(addr, b); err != nil {
		_ = f.st.Write(pred, undo)
		return false, err
	}
	f.trie.SetBoundary(B[q-1], s, addr, pred, addr, trie.ModeTHCL)
	if f.cfg.CollapseOnMerge {
		f.trie.Collapse()
	}
	f.splits++
	f.redistributions++
	f.emit(obs.EvRedistribution, addr, pred, "to predecessor")
	return true, nil
}

// newBucketBound computes the logical-path bound of the bucket a split
// appends. Under THCL the new bucket's run reaches the old upper bound
// (shared leaves cover everything above the split string). Under the
// basic method a multi-digit expansion interposes nil leaves, so the new
// bucket's single leaf bound is the split string less its last digit;
// the single-digit case keeps the old bound.
func newBucketBound(mode trie.Mode, s, oldBound []byte) []byte {
	if mode == trie.ModeTHCL {
		return oldBound
	}
	cp := keys.CommonPrefixLen(s, oldBound)
	if len(s)-cp > 1 {
		return s[:len(s)-1]
	}
	return oldBound
}
