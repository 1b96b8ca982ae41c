package mlth

import (
	"fmt"

	"triehash/internal/store"
	"triehash/internal/trie"
)

// Stats is the multilevel measurement snapshot: the paper's Section 3.2
// studies the page load factor next to the bucket load factor.
type Stats struct {
	Keys    int
	Buckets int
	// Load is the bucket load factor.
	Load float64
	// Levels and Pages describe the page hierarchy.
	Levels int
	Pages  int
	// PageLoad is the mean cells-per-page over page capacity, across all
	// pages (the paper's page load factor); FileLevelPageLoad restricts
	// it to the file level, where almost all pages live.
	PageLoad          float64
	FileLevelPageLoad float64
	// TrieCells sums cells over all pages.
	TrieCells int
	NilLeaves int
	Splits    int
	// PageSplits counts page splits; PageReads the non-root page
	// accesses served so far.
	PageSplits int
	PageReads  int64
	IO         store.Counters
}

// Stats returns the current snapshot.
func (f *File) Stats() Stats {
	st := Stats{
		Keys:       f.nkeys,
		Buckets:    f.st.Buckets(),
		Levels:     f.Levels(),
		Pages:      len(f.pages),
		Splits:     f.splits,
		PageSplits: f.pageSplits,
		PageReads:  f.pageReads.Load(),
		IO:         f.st.Counters(),
	}
	if st.Buckets > 0 {
		st.Load = float64(st.Keys) / float64(f.cfg.Capacity*st.Buckets)
	}
	fileCells, filePages := 0, 0
	for _, p := range f.pages {
		st.TrieCells += p.tr.Cells()
		st.NilLeaves += p.tr.NilLeaves()
		if p.level == 0 {
			fileCells += p.tr.Cells()
			filePages++
		}
	}
	if len(f.pages) > 0 {
		st.PageLoad = float64(st.TrieCells) / float64(len(f.pages)*f.cfg.PageCapacity)
	}
	if filePages > 0 {
		st.FileLevelPageLoad = float64(fileCells) / float64(filePages*f.cfg.PageCapacity)
	}
	return st
}

func (s Stats) String() string {
	return fmt.Sprintf("keys=%d buckets=%d load=%.3f levels=%d pages=%d pageload=%.3f cells=%d",
		s.Keys, s.Buckets, s.Load, s.Levels, s.Pages, s.PageLoad, s.TrieCells)
}

// CheckInvariants verifies the page hierarchy and key placement: page
// levels are consistent, every page is referenced exactly once, page sizes
// respect b', every stored key routes back to its bucket through the
// multi-level search, and keys are globally ordered.
func (f *File) CheckInvariants() error {
	refs := make(map[int32]int)
	for pid, p := range f.pages {
		if p.tr.Cells() > f.cfg.PageCapacity {
			return fmt.Errorf("mlth: page %d holds %d > b'=%d cells", pid, p.tr.Cells(), f.cfg.PageCapacity)
		}
		if p.level > 0 {
			for _, leaf := range p.tr.InorderLeafPtrs() {
				if leaf.IsNil() {
					return fmt.Errorf("mlth: nil leaf in upper page %d", pid)
				}
				child := leaf.Addr()
				if int(child) >= len(f.pages) {
					return fmt.Errorf("mlth: page %d points at missing page %d", pid, child)
				}
				if f.pages[child].level != p.level-1 {
					return fmt.Errorf("mlth: page %d (level %d) points at page %d (level %d)",
						pid, p.level, child, f.pages[child].level)
				}
				refs[child]++
			}
		}
	}
	for pid := range f.pages {
		if int32(pid) == f.root {
			if refs[int32(pid)] != 0 {
				return fmt.Errorf("mlth: root page %d is referenced", pid)
			}
			continue
		}
		if refs[int32(pid)] != 1 {
			return fmt.Errorf("mlth: page %d referenced %d times", pid, refs[int32(pid)])
		}
	}

	// One in-order walk over the file-level leaves: every bucket's
	// leaves form one consecutive cross-page run whose top bound matches
	// the bucket header (the TOR83 recovery invariant).
	type run struct {
		addr int32
		top  []byte
	}
	var runs []run
	closed := map[int32]bool{}
	lastAddr := int32(-1)
	var runErr error
	f.walkFrom("", false, func(fl fileLeaf) bool {
		if fl.leaf.IsNil() {
			lastAddr = -1
			return true
		}
		a := fl.leaf.Addr()
		if a != lastAddr {
			if closed[a] {
				runErr = fmt.Errorf("mlth: bucket %d appears in two separate cross-page runs", a)
				return false
			}
			if lastAddr >= 0 {
				closed[lastAddr] = true
			}
			lastAddr = a
			runs = append(runs, run{addr: a})
		}
		runs[len(runs)-1].top = fl.bound
		return true
	})
	if runErr != nil {
		return runErr
	}

	// Stored bounds, key placement and global order, bucket by bucket in
	// key order.
	total := 0
	prev := ""
	first := true
	for _, r := range runs {
		b, err := f.st.Read(r.addr)
		if err != nil {
			return err
		}
		if string(b.Bound()) != string(r.top) {
			return fmt.Errorf("mlth: bucket %d stores bound %q, trie run tops at %q", r.addr, b.Bound(), r.top)
		}
		if b.Len() > f.cfg.Capacity {
			return fmt.Errorf("mlth: bucket %d holds %d > b=%d records", r.addr, b.Len(), f.cfg.Capacity)
		}
		total += b.Len()
		for i := 0; i < b.Len(); i++ {
			k := b.At(i).Key
			if !first && k <= prev {
				return fmt.Errorf("mlth: key order violated: %q after %q", k, prev)
			}
			prev, first = k, false
			if leaf := f.locateLeaf(k); leaf.IsNil() || leaf.Addr() != r.addr {
				return fmt.Errorf("mlth: key %q stored in bucket %d but routes to %v", k, r.addr, leaf)
			}
		}
	}
	if total != f.nkeys {
		return fmt.Errorf("mlth: %d records stored, counter says %d", total, f.nkeys)
	}
	return nil
}

// DumpPages renders the page hierarchy for debugging and the Fig 4
// reproduction.
func (f *File) DumpPages() string {
	out := ""
	for pid, p := range f.pages {
		marker := " "
		if int32(pid) == f.root {
			marker = "*"
		}
		out += fmt.Sprintf("%spage %d (level %d, %d cells): %s\n", marker, pid, p.level, p.tr.Cells(), p.tr.String())
	}
	return out
}

// PageTrie exposes page pid's subtrie (tests and the Fig 4 reproduction).
func (f *File) PageTrie(pid int32) *trie.Trie { return f.pages[pid].tr }

// Root returns the root page id.
func (f *File) Root() int32 { return f.root }
