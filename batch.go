package triehash

import (
	"fmt"

	"triehash/internal/obs"
)

// GetBatch looks up many keys in one call. The file lock is taken once
// for the whole batch, and on single-level files the keys are partitioned
// by trie leaf so each qualifying bucket is accessed exactly once no
// matter how many keys it serves. Results align with keys: errs[i] is nil
// and vals[i] the value on success; errs[i] is ErrNotFound (or a
// validation error) otherwise. Each value may alias the file's record, as
// Get's does, and must not be modified. The batch is timed as one
// OpGetBatch sample when an observer is attached.
func (f *File) GetBatch(keys []string) (vals [][]byte, errs []error) {
	c := call{op: obs.OpGetBatch, keys: keys}
	if err := f.run(&c); err != nil {
		return make([][]byte, len(keys)), fill(make([]error, len(keys)), err)
	}
	return c.values, c.errs
}

// PutBatch inserts or replaces many records in one call under a single
// acquisition of the file lock, with input order winning ties (when a key
// appears twice the later value is the one stored). errs aligns with keys;
// the batch is timed as one OpPutBatch sample when an observer is
// attached. On a concurrent file the batch partitions by bucket and the
// bucket writes fan out across CPUs; a record that overflows its bucket
// then splits it as a single Put would. With
// Options.WAL the whole batch rides one group-commit rendezvous: its
// accepted records are durable in the log when the call returns. The
// file may keep the values, as Put may.
func (f *File) PutBatch(keys []string, values [][]byte) []error {
	if len(keys) != len(values) {
		panic(fmt.Sprintf("triehash: PutBatch with %d keys but %d values", len(keys), len(values)))
	}
	c := call{op: obs.OpPutBatch, keys: keys, values: values, errs: make([]error, len(keys))}
	if err := f.run(&c); err != nil {
		fill(c.errs, err)
	}
	f.maybeCheckpoint()
	return c.errs
}

// admit carves a batch's over-size records out before it reaches the
// engine, failing them in errs exactly as single Puts would. It returns
// the records to apply and, when it dropped any, idx mapping each one
// back to its batch position (nil: the batch passes whole).
func (f *File) admit(keys []string, values [][]byte, errs []error) (ks []string, vs [][]byte, idx []int) {
	if f.maxRecord == 0 {
		return keys, values, nil
	}
	ks = make([]string, 0, len(keys))
	vs = make([][]byte, 0, len(keys))
	idx = make([]int, 0, len(keys))
	for i, k := range keys {
		if errs[i] = f.checkRecord(k, values[i]); errs[i] != nil {
			continue
		}
		ks = append(ks, k)
		vs = append(vs, values[i])
		idx = append(idx, i)
	}
	return ks, vs, idx
}

// fill sets every entry of errs to err and returns errs.
func fill(errs []error, err error) []error {
	for i := range errs {
		errs[i] = err
	}
	return errs
}
