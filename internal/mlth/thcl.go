package mlth

import (
	"fmt"

	"triehash/internal/bucket"
	"triehash/internal/obs"
	"triehash/internal/trie"
)

// This file extends the multilevel scheme to the controlled-load variant —
// the refinement the paper's conclusion calls for ("this results should
// now be refined for MLTH and for the new variant"). The page hierarchy is
// unchanged; what changes is the bucket split: THCL's shared leaves and
// successor repointing (Section 4.1 steps 3.0-3.5) must operate on a run
// of leaves that may span several file-level pages.

// setBoundaryTHCL installs split string s as the new boundary inside the
// key range of bucket old, across pages: leaves of old's run at or below s
// keep old, the straddling leaf grows the chain (inside its page), and
// later leaves of the run repoint to high — the multilevel form of
// Section 4.1 steps 3.0-3.5. The walk seeks to minKey, the smallest key
// old held before the split: run leaves below its leaf lie under s and are
// never modified, so the cost is one root-to-leaf path plus the run. It
// returns the page that received new cells (with its ancestry) so the
// caller can split overflowing pages, or -1.
func (f *File) setBoundaryTHCL(s []byte, minKey string, old, high int32) (grownPage int32, ancestry []int32) {
	var run []fileLeaf
	f.walkFrom(minKey, false, func(fl fileLeaf) bool {
		if !fl.leaf.IsNil() && fl.leaf.Addr() == old {
			fl.ancestry = append([]int32(nil), fl.ancestry...)
			run = append(run, fl)
			return true
		}
		return len(run) == 0 // stop once past the run
	})
	if len(run) == 0 {
		panic(fmt.Sprintf("mlth: setBoundaryTHCL: no leaf carries bucket %d", old))
	}
	grownPage = -1
	straddle := -1
	exact := false
	for i, fl := range run {
		cmp := f.cfg.Alphabet.ComparePathBounds(fl.bound, s)
		if cmp < 0 {
			continue
		}
		if cmp == 0 {
			exact = true
			straddle = i + 1
		} else {
			straddle = i
		}
		break
	}
	if straddle < 0 {
		panic(fmt.Sprintf("mlth: setBoundaryTHCL: boundary %q above bucket %d's range", s, old))
	}
	if !exact {
		fl := run[straddle]
		f.pages[fl.page].tr.ExpandAt(fl.pos, fl.bound, s, old, high, trie.ModeTHCL)
		grownPage, ancestry = fl.page, fl.ancestry
		straddle++
	}
	for _, fl := range run[straddle:] {
		f.pages[fl.page].tr.SetLeaf(fl.pos, high)
	}
	return grownPage, ancestry
}

// splitBucketTHCL is the controlled-load bucket split under the page
// hierarchy: split and bounding keys per the configuration, boundary
// installed across pages, bucket bounds maintained for recovery.
func (f *File) splitBucketTHCL(addr int32, b *bucket.Bucket) error {
	B := b.Keys()
	splitKey := B[f.cfg.SplitPos-1]
	boundKey := B[f.cfg.BoundPos-1]
	s := f.cfg.Alphabet.SplitString(splitKey, boundKey)

	newAddr, err := f.st.Alloc()
	if err != nil {
		return err
	}
	moved := b.SplitOff(func(k string) bool { return f.cfg.Alphabet.KeyLEBound(k, s) })
	if len(moved) == 0 || b.Len() == 0 {
		panic(fmt.Sprintf("mlth: THCL split of bucket %d by %q moved %d of %d keys", addr, s, len(moved), len(B)))
	}
	nb := bucket.New(f.cfg.Capacity)
	nb.SetBound(b.Bound()) // shared leaves cover up to the old bound
	nb.Absorb(moved)
	b.SetBound(s)
	// New bucket first, old second, trie last (see core.appendSplit).
	if err := f.st.Write(newAddr, nb); err != nil {
		return err
	}
	if err := f.st.Write(addr, b); err != nil {
		return err
	}
	grown, ancestry := f.setBoundaryTHCL(s, B[0], addr, newAddr)
	f.splits++
	f.emit(obs.EvSplit, addr, newAddr, fmt.Sprintf("split string %q", s))
	if grown >= 0 {
		f.splitPagesUpward(ancestry)
	}
	return nil
}
