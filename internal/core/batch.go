package core

import "triehash/internal/obs"

// GetBatch is GetBatchOp without a span.
func (f *File) GetBatch(keys []string) (vals [][]byte, errs []error) { return f.GetBatchOp(keys, nil) }

// GetBatchOp looks up many keys in one pass. Keys are partitioned by the
// trie leaf they map to, so every qualifying bucket is read (or viewed,
// when the store supports snapshots) exactly once no matter how many of
// the batch's keys it serves — the batch analogue of the paper's
// observation that an ordered file serves a range scan with one access
// per bucket. Results align with keys: errs[i] is nil and vals[i] the
// value on success; errs[i] is ErrNotFound or a validation/storage error
// otherwise. The whole partition pass is charged to sp's trie-search
// stage, each bucket access to its own stage.
func (f *File) GetBatchOp(keys []string, sp *obs.Span) (vals [][]byte, errs []error) {
	vals = make([][]byte, len(keys))
	errs = make([]error, len(keys))
	groups := make(map[int32][]int, len(keys))
	for i, k := range keys {
		if err := f.cfg.Alphabet.Validate(k); err != nil {
			errs[i] = err
			continue
		}
		leaf := f.trie.SearchAddr(k)
		if leaf.IsNil() {
			errs[i] = ErrNotFound
			continue
		}
		groups[leaf.Addr()] = append(groups[leaf.Addr()], i)
	}
	sp.Mark(obs.StageTrieSearch)
	for addr, idxs := range groups {
		b, err := f.views.View(addr, sp)
		if err != nil {
			for _, i := range idxs {
				errs[i] = err
			}
			continue
		}
		for _, i := range idxs {
			if v, ok := b.Get(keys[i]); ok {
				vals[i] = v
			} else {
				errs[i] = ErrNotFound
			}
		}
	}
	return vals, errs
}

// PutBatchOp applies the records in input order, one PutOp each, so a key
// named twice ends with its later value. The serial engine has no cheaper
// batch write: any record may split its bucket and move the next one's.
func (f *File) PutBatchOp(keys []string, values [][]byte, sp *obs.Span) []error {
	errs := make([]error, len(keys))
	for i, k := range keys {
		_, errs[i] = f.PutOp(k, values[i], sp)
	}
	return errs
}
