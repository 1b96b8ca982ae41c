package core

import (
	"fmt"
	"math"

	"triehash/internal/bucket"
	"triehash/internal/store"
	"triehash/internal/trie"
)

// bulkPerBucket resolves the records-per-bucket target of a bulk load:
// fill·Capacity rounded to the nearest integer (truncation used to turn
// fill 0.999 of capacity 100 into 99 records silently). A fill packing
// less than one record per bucket is rejected rather than clamped — the
// caller asked for a load the geometry cannot express.
func bulkPerBucket(cfg Config, fill float64) (int, error) {
	if fill <= 0 || fill > 1 {
		return 0, fmt.Errorf("core: bulk load fill %v outside (0, 1]", fill)
	}
	perBucket := int(math.Round(fill * float64(cfg.Capacity)))
	if perBucket < 1 {
		return 0, fmt.Errorf("core: bulk load fill %v of bucket capacity %d packs %.2f records per bucket — below one; raise fill to at least %.3f",
			fill, cfg.Capacity, fill*float64(cfg.Capacity), 0.5/float64(cfg.Capacity))
	}
	return perBucket, nil
}

// BulkLoad builds a file from records supplied in strictly ascending key
// order, in one pass: keys are sliced into buckets of Fill·Capacity
// records, the boundary between adjacent buckets is the split string of
// the keys astride it, and the trie is reconstructed from the boundary
// sequence — arriving balanced, unlike the right-deep trie an incremental
// compact load grows. next returns one record at a time and ok=false at
// the end.
//
// fill is the target bucket load in (0, 1]; 1 gives the paper's compact
// file, lower values leave per-bucket slack for later random insertions
// (the B-tree bulk-loading practice). The resulting file is identical in
// content to an incremental load and obeys every invariant.
func BulkLoad(cfg Config, st store.Store, fill float64, next func() (key string, value []byte, ok bool)) (*File, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	perBucket, err := bulkPerBucket(cfg, fill)
	if err != nil {
		return nil, err
	}
	if st.Buckets() != 0 {
		return nil, fmt.Errorf("core: store already holds %d buckets", st.Buckets())
	}

	var (
		bounds  [][]byte
		ptrs    []trie.Ptr
		cur     = bucket.New(cfg.Capacity)
		prevKey string
		total   int
	)
	flush := func(boundary []byte) error {
		addr, err := st.Alloc()
		if err != nil {
			return err
		}
		cur.SetBound(boundary)
		if err := st.Write(addr, cur); err != nil {
			return err
		}
		bounds = append(bounds, boundary)
		ptrs = append(ptrs, trie.Leaf(addr))
		cur = bucket.New(cfg.Capacity)
		return nil
	}
	for {
		key, value, ok := next()
		if !ok {
			break
		}
		if err := cfg.Alphabet.Validate(key); err != nil {
			return nil, err
		}
		if total > 0 && key <= prevKey {
			return nil, fmt.Errorf("core: bulk load keys not strictly ascending: %q after %q", key, prevKey)
		}
		if cur.Len() > 0 {
			// The boundary separates the bucket's last key from the
			// incoming one, exactly as a split would place it. Cut at the
			// count target, or earlier when the byte budget is armed and the
			// grown bucket could no longer encode into its slot.
			cut := cur.Len() >= perBucket
			var s []byte
			if cut || cfg.PageBudget > 0 {
				s = cfg.Alphabet.SplitString(prevKey, key)
			}
			if !cut && cfg.PageBudget > 0 {
				probe := cur.Clone()
				probe.Put(key, value)
				probe.SetBound(s)
				cut = probe.EncodedLen(cfg.Format) > cfg.PageBudget
			}
			if cut {
				if err := flush(s); err != nil {
					return nil, err
				}
			}
		}
		cur.Put(key, value)
		prevKey = key
		total++
	}
	// The final bucket carries the infinite bound (and exists even for
	// an empty load, matching New's initial state).
	if err := flush(nil); err != nil {
		return nil, err
	}

	tr, err := trie.Reconstruct(cfg.Alphabet, bounds, ptrs)
	if err != nil {
		return nil, fmt.Errorf("core: bulk load: %w", err)
	}
	tr.SetTombstoning(cfg.TombstoneMerges)
	return (&File{cfg: cfg, trie: tr, st: st, nkeys: total}).resolveStore(), nil
}
