package triehash

import (
	"triehash/internal/core"
	"triehash/internal/store"
)

// Stats is a snapshot of the file's structure and the disk traffic it has
// generated — the figures the paper's evaluation is stated in.
type Stats struct {
	// Keys and Buckets describe the file; Load is the bucket load
	// factor a = keys / (capacity * buckets).
	Keys    int
	Buckets int
	Load    float64
	// TrieCells is the paper's trie size M; TrieBytes its size at the
	// practical six bytes per cell; NilLeaves counts the basic
	// method's empty-range leaves.
	TrieCells int
	TrieBytes int
	NilLeaves int
	// Depth is the longest in-memory search path through the trie.
	Depth int
	// Splits counts bucket splits; Redistributions the subset resolved
	// by shifting keys into a neighbour instead of a new bucket.
	Splits          int
	Redistributions int
	// Levels and Pages describe the page hierarchy (1 and 1 for
	// single-level files); PageReads counts non-root page accesses.
	Levels    int
	Pages     int
	PageReads int64
	// IO holds the bucket transfers served by the store.
	IO IOCounters
	// CacheHits and CacheMisses count buffer-pool lookups when
	// Options.CacheFrames is set (both zero without a pool). A hit means
	// the read in IO.Reads was served from memory, not the disk.
	CacheHits   int64
	CacheMisses int64
	// FormatVersion is the on-disk encoding new pages are written at
	// (Options.FormatVersion after defaulting). Individual pages of a file
	// caught mid-upgrade may still be at an older version until their next
	// rewrite.
	FormatVersion int
}

// IOCounters mirrors the store's access counters.
type IOCounters struct {
	Reads  int64
	Writes int64
	Allocs int64
	Frees  int64
}

func fromStore(c store.Counters) IOCounters {
	return IOCounters{Reads: c.Reads, Writes: c.Writes, Allocs: c.Allocs, Frees: c.Frees}
}

// Stats returns the current snapshot.
func (f *File) Stats() Stats {
	if f.concurrent {
		// The concurrent engine's writers run under the shared lock;
		// excluding them makes the snapshot consistent, not just a set of
		// instantaneous counter reads.
		f.mu.Lock()
		defer f.mu.Unlock()
	} else {
		f.mu.RLock()
		defer f.mu.RUnlock()
	}
	var out Stats
	if f.multi != nil {
		m := f.multi.Stats()
		out = Stats{
			Keys: m.Keys, Buckets: m.Buckets, Load: m.Load,
			TrieCells: m.TrieCells, TrieBytes: m.TrieCells * 6, NilLeaves: m.NilLeaves,
			Splits: m.Splits,
			Levels: m.Levels, Pages: m.Pages, PageReads: m.PageReads,
			IO: fromStore(m.IO),
		}
	} else {
		var s core.Stats
		if f.conc != nil {
			s = f.conc.Stats()
		} else {
			s = f.single.Stats()
		}
		out = Stats{
			Keys: s.Keys, Buckets: s.Buckets, Load: s.Load,
			TrieCells: s.TrieCells, TrieBytes: s.TrieBytes, NilLeaves: s.NilLeaves,
			Depth: s.Depth, Splits: s.Splits, Redistributions: s.Redistributions,
			Levels: 1, Pages: 1,
			IO: fromStore(s.IO),
		}
	}
	if c := store.AsSharded(f.eng.Store()); c != nil {
		out.CacheHits, out.CacheMisses = c.Hits(), c.Misses()
	}
	out.FormatVersion = f.opts.FormatVersion
	return out
}

// ResetIOCounters zeroes every cumulative counter family around a
// measured workload phase: the store's transfer counters (IO), the
// buffer pool's hit/miss counters, the page-access counter, and the
// structural event counters (Splits, Redistributions, and the multilevel
// page splits). State gauges — Keys, Buckets, Load, TrieCells, Depth,
// Levels, Pages — describe the file, not the traffic, and are untouched.
// An attached Observer keeps its own counters; reset those with
// Observer.ResetCounters.
func (f *File) ResetIOCounters() {
	f.mu.Lock()
	defer f.mu.Unlock()
	// The engine resets its structural counters and the store chain's
	// counters (the cache zeroes hits/misses as the reset passes through).
	f.eng.ResetCounters()
}

// CheckInvariants verifies the whole file's structural invariants (it
// reads every bucket; intended for tests and tooling). The exclusive lock
// quiesces the concurrent engine's shared-lock writers.
func (f *File) CheckInvariants() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.conc != nil {
		return f.conc.CheckInvariants()
	}
	if f.multi != nil {
		return f.multi.CheckInvariants()
	}
	return f.single.CheckInvariants()
}
