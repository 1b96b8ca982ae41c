package main

import (
	"errors"
	"fmt"
	"time"

	"triehash/internal/bucket"
	"triehash/internal/format"
	"triehash/internal/store"
)

// replayPasses is how many times the codec replay encodes and decodes
// every page of the final file.
const replayPasses = 5

// replayStats is what the store and codec replay measured on a closed
// file's buckets.th.
type replayStats struct {
	pages, records int
	readNs         int64 // store.FileStore.Read of every live slot, once
	encNs, decNs   int64 // over replayPasses passes
	encBytes       int64 // one pass
	mismatches     int   // decoded pages that differ from the page read
}

// replay times the store and bucket layers on the run's own pages: one
// store.OpenFile + Read of every live slot, then AppendFormat(v2) and
// DecodeBinary of every page, repeated.
func replay(path string) (replayStats, error) {
	var r replayStats
	fs, err := store.OpenFile(path)
	if err != nil {
		return r, fmt.Errorf("replay: %w", err)
	}
	defer fs.Close()
	var pages []*bucket.Bucket
	for a := int32(0); a < fs.MaxAddr(); a++ {
		t := time.Now()
		b, err := fs.Read(a)
		d := time.Since(t)
		if errors.Is(err, store.ErrNotAllocated) {
			continue
		}
		if err != nil {
			return r, fmt.Errorf("replay: %w", err)
		}
		r.readNs += int64(d)
		r.records += b.Len()
		pages = append(pages, b)
	}
	r.pages = len(pages)

	enc := make([]byte, 0, 1<<20)
	ends := make([]int, len(pages))
	for i, b := range pages {
		enc = b.AppendFormat(enc, format.V2)
		ends[i] = len(enc)
	}
	r.encBytes = int64(len(enc))
	buf := make([]byte, 0, 8192)
	t := time.Now()
	for p := 0; p < replayPasses; p++ {
		for _, b := range pages {
			buf = b.AppendFormat(buf[:0], format.V2)
		}
	}
	r.encNs = int64(time.Since(t))

	start := 0
	for i, end := range ends {
		d, _, err := bucket.DecodeBinary(enc[start:end])
		if err != nil {
			return r, fmt.Errorf("replay: decode page %d: %w", i, err)
		}
		if !samePage(d, pages[i]) {
			r.mismatches++
		}
		start = end
	}
	t = time.Now()
	for p := 0; p < replayPasses; p++ {
		start := 0
		for _, end := range ends {
			if _, _, err := bucket.DecodeBinary(enc[start:end]); err != nil {
				return r, fmt.Errorf("replay: decode: %w", err)
			}
			start = end
		}
	}
	r.decNs = int64(time.Since(t))
	return r, nil
}

func samePage(a, b *bucket.Bucket) bool {
	if a.Len() != b.Len() || string(a.Bound()) != string(b.Bound()) {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.At(i), b.At(i)
		if ra.Key != rb.Key || string(ra.Value) != string(rb.Value) {
			return false
		}
	}
	return true
}
