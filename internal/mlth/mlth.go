// Package mlth implements multilevel trie hashing (Section 2.5 of the
// paper): when the trie outgrows main memory it is split into a hierarchy
// of pages, each holding a subtrie of at most b' cells. Pages split when
// they overflow; the split node — the internal node best balancing the
// in-order node counts that has no logical parent within the page — moves
// to the parent page, its two pointers addressing the half pages. Because
// of the resulting high branching factor, two page levels suffice for very
// large files, so any key search costs two disk accesses once the root
// page is cached.
//
// Following the paper, the multilevel scheme is implemented for the basic
// method (one leaf per bucket, nil leaves allowed); extending it to THCL
// is the future work the paper's conclusion calls for.
package mlth

import (
	"errors"
	"fmt"
	"sync/atomic"

	"triehash/internal/bucket"
	"triehash/internal/format"
	"triehash/internal/keys"
	"triehash/internal/obs"
	"triehash/internal/store"
	"triehash/internal/trie"
)

// ErrNotFound is returned when a key is absent from the file.
var ErrNotFound = errors.New("mlth: key not found")

// Config parameterizes a multilevel trie-hashed file.
type Config struct {
	// Alphabet is the digit alphabet; the zero value selects keys.ASCII.
	Alphabet keys.Alphabet
	// Capacity is the bucket capacity b >= 2.
	Capacity int
	// PageCapacity is b': the number of cells a trie page holds.
	PageCapacity int
	// Mode selects the basic method (the paper's MLTH) or the
	// controlled-load variant (the extension its conclusion calls for).
	Mode trie.Mode
	// SplitPos is the split-key position m (0 = the middle INT(b/2+1)).
	SplitPos int
	// BoundPos is THCL's bounding-key position (0 = the last key);
	// SplitPos+1 pins ordered loads exactly. Ignored in basic mode.
	BoundPos int
	// SplitNodeFrac shifts the page split node for expected ordered
	// insertions (Section 3.2 / /ZEG88/): the target fraction of the
	// page's internal nodes preceding the split node. 0 selects 0.5.
	SplitNodeFrac float64
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.Alphabet == (keys.Alphabet{}) {
		cfg.Alphabet = keys.ASCII
	}
	if cfg.Capacity < 2 {
		return cfg, fmt.Errorf("mlth: bucket capacity %d; need at least 2", cfg.Capacity)
	}
	if cfg.PageCapacity < 3 {
		return cfg, fmt.Errorf("mlth: page capacity %d cells; need at least 3", cfg.PageCapacity)
	}
	if cfg.SplitPos == 0 {
		cfg.SplitPos = cfg.Capacity/2 + 1
	}
	if cfg.SplitPos < 1 || cfg.SplitPos > cfg.Capacity {
		return cfg, fmt.Errorf("mlth: split position %d outside [1, %d]", cfg.SplitPos, cfg.Capacity)
	}
	if cfg.BoundPos == 0 || cfg.Mode == trie.ModeBasic {
		cfg.BoundPos = cfg.Capacity + 1
	}
	if cfg.BoundPos <= cfg.SplitPos || cfg.BoundPos > cfg.Capacity+1 {
		return cfg, fmt.Errorf("mlth: bounding position %d outside (%d, %d]", cfg.BoundPos, cfg.SplitPos, cfg.Capacity+1)
	}
	if cfg.SplitNodeFrac == 0 {
		cfg.SplitNodeFrac = 0.5
	}
	if cfg.SplitNodeFrac <= 0 || cfg.SplitNodeFrac >= 1 {
		return cfg, fmt.Errorf("mlth: split node fraction %v outside (0, 1)", cfg.SplitNodeFrac)
	}
	return cfg, nil
}

// page is one node of the page hierarchy: a subtrie whose leaves address
// either buckets (level 0, the file level) or pages of the level below.
type page struct {
	level int
	tr    *trie.Trie
}

// File is a multilevel trie-hashed file.
type File struct {
	cfg Config
	st  store.Store
	// views is st's read-only path for GetOp and RangeOp, resolved once
	// in New and Open; PutOp and DeleteOp Read, since they mutate.
	views store.Views
	pages []*page
	root  int32
	nkeys int
	// splits counts bucket splits, pageSplits page splits.
	splits     int
	pageSplits int
	// pageReads counts page accesses beyond the root (which stays in
	// main memory, as the paper assumes); bucket transfers are counted
	// by the store. Atomic so concurrent readers can count.
	pageReads atomic.Int64
	// hook carries structural events to an attached observer (nil = off).
	hook *obs.Hook
	// fmtv is the on-disk encoding version SaveMeta writes (0 =
	// format.Default); pages it reads may be either version.
	fmtv format.Version
}

// SetObsHook attaches the observability hook structural events go to.
func (f *File) SetObsHook(h *obs.Hook) { f.hook = h }

// emit sends a structural event stamped with the cheap state figures; a
// no-op (one atomic load) with no observer attached.
func (f *File) emit(t obs.EventType, addr, addr2 int32, detail string) {
	o := f.hook.Observer()
	if o == nil {
		return
	}
	o.Emit(obs.Event{
		Type: t, Addr: addr, Addr2: addr2, Detail: detail,
		Keys: f.nkeys, Buckets: f.st.Buckets(), TrieCells: len(f.pages),
	})
}

// pageRead counts an access to page pid. The root page stays in main
// memory, as the paper assumes, so only the others count; the observer
// ring-buffers the high-frequency event only under TraceIO.
func (f *File) pageRead(pid int32) {
	if pid == f.root {
		return
	}
	f.pageReads.Add(1)
	o := f.hook.Observer()
	if o == nil {
		return
	}
	o.Emit(obs.Event{Type: obs.EvPageRead, Addr: pid})
}

// New creates a fresh multilevel file over an empty store.
func New(cfg Config, st store.Store) (*File, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if st.Buckets() != 0 {
		return nil, fmt.Errorf("mlth: store already holds %d buckets", st.Buckets())
	}
	if _, err := st.Alloc(); err != nil {
		return nil, err
	}
	f := &File{cfg: cfg, st: st, views: store.NewViews(st)}
	f.pages = append(f.pages, &page{level: 0, tr: trie.New(cfg.Alphabet, 0)})
	return f, nil
}

// Levels returns the number of page levels (1 = the trie fits one page).
func (f *File) Levels() int { return f.pages[f.root].level + 1 }

// Pages returns the number of trie pages.
func (f *File) Pages() int { return len(f.pages) }

// Len returns the number of records.
func (f *File) Len() int { return f.nkeys }

// Splits returns the number of bucket splits.
func (f *File) Splits() int { return f.splits }

// PageSplits returns the number of page splits.
func (f *File) PageSplits() int { return f.pageSplits }

// PageReads returns the accumulated non-root page accesses.
func (f *File) PageReads() int64 { return f.pageReads.Load() }

// ResetPageReads zeroes the page access counter.
func (f *File) ResetPageReads() { f.pageReads.Store(0) }

// ResetCounters zeroes the file's cumulative event counters — bucket
// splits, page splits and page reads — and the store's access counters,
// so a measured phase starts from zero across every counter family.
// State figures (Keys, Pages, Levels) are gauges and are not touched.
func (f *File) ResetCounters() {
	f.splits, f.pageSplits = 0, 0
	f.pageReads.Store(0)
	f.st.ResetCounters()
}

// Store exposes the bucket store for access accounting.
func (f *File) Store() store.Store { return f.st }

// Alphabet returns the digit alphabet the file was created with.
func (f *File) Alphabet() keys.Alphabet { return f.cfg.Alphabet }

// Capacity returns the bucket capacity b.
func (f *File) Capacity() int { return f.cfg.Capacity }

// locate runs the multi-level key search: Algorithm A1 continues from page
// to page, carrying the digit index j and the logical path C across
// levels. It returns the visited page ids (root first) and the search
// result within the file-level page, whose Path is the full logical path.
func (f *File) locate(key string) (path []int32, res trie.SearchResult) {
	pid := f.root
	j := 0
	var C []byte
	for {
		p := f.pages[pid]
		f.pageRead(pid)
		path = append(path, pid)
		res = p.tr.SearchFrom(key, j, C)
		if p.level == 0 {
			return path, res
		}
		if res.Leaf.IsNil() {
			panic(fmt.Sprintf("mlth: nil leaf at page level %d", p.level))
		}
		pid = res.Leaf.Addr()
		j, C = res.J, res.Path
	}
}

// locateLeaf is locate for point reads: the same page-by-page search and
// page-read count, carrying only the digit index j — the descent never
// consults the logical path — so it allocates nothing.
func (f *File) locateLeaf(key string) trie.Ptr {
	pid := f.root
	j := 0
	for {
		p := f.pages[pid]
		f.pageRead(pid)
		var leaf trie.Ptr
		leaf, j = p.tr.SearchAddrFrom(key, j)
		if p.level == 0 {
			return leaf
		}
		if leaf.IsNil() {
			panic(fmt.Sprintf("mlth: nil leaf at page level %d", p.level))
		}
		pid = leaf.Addr()
	}
}

// Get is GetOp without a span.
func (f *File) Get(key string) ([]byte, error) { return f.GetOp(key, nil) }

// GetOp returns the value stored under key through the store's point
// lookup (Views.Get), which searches the page without decoding it when
// the store can. The multilevel locate — page traversal included — is
// charged to sp's trie-search stage: pages are trie nodes here, and their
// reads are counted separately by the page-read counter.
// mlth is a deterministic package, so all clock reads stay behind the
// span's methods.
func (f *File) GetOp(key string, sp *obs.Span) ([]byte, error) {
	if err := f.cfg.Alphabet.Validate(key); err != nil {
		return nil, err
	}
	leaf := f.locateLeaf(key)
	sp.Mark(obs.StageTrieSearch)
	if leaf.IsNil() {
		return nil, ErrNotFound
	}
	v, ok, err := f.views.Get(leaf.Addr(), key, sp)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
	return v, nil
}

// Put is PutOp without a span.
func (f *File) Put(key string, value []byte) (bool, error) { return f.PutOp(key, value, nil) }

// PutOp inserts or replaces the record for key and reports whether an
// existing record was replaced. Bucket and page splits are charged to
// sp's split stage.
func (f *File) PutOp(key string, value []byte, sp *obs.Span) (bool, error) {
	if err := f.cfg.Alphabet.Validate(key); err != nil {
		return false, err
	}
	path, res := f.locate(key)
	sp.Mark(obs.StageTrieSearch)
	filePage := path[len(path)-1]
	if res.Leaf.IsNil() {
		addr, err := f.st.Alloc()
		if err != nil {
			return false, err
		}
		b := bucket.New(f.cfg.Capacity)
		b.SetBound(res.Path)
		b.Put(key, value)
		err = f.st.Write(addr, b)
		sp.Mark(obs.StageStoreWrite)
		if err != nil {
			return false, err
		}
		f.pages[filePage].tr.AllocNil(res.Pos, addr)
		f.nkeys++
		return false, nil
	}
	addr := res.Leaf.Addr()
	b, err := f.st.Read(addr)
	sp.Mark(obs.StageStoreRead)
	if err != nil {
		return false, err
	}
	if b.Put(key, value) {
		err := f.st.Write(addr, b)
		sp.Mark(obs.StageStoreWrite)
		return true, err
	}
	if b.Len() <= f.cfg.Capacity {
		err := f.st.Write(addr, b)
		sp.Mark(obs.StageStoreWrite)
		if err != nil {
			return false, err
		}
		f.nkeys++
		return false, nil
	}
	if f.cfg.Mode == trie.ModeTHCL {
		err = f.splitBucketTHCL(addr, b)
	} else {
		err = f.splitBucket(path, res, addr, b)
	}
	sp.Mark(obs.StageSplit)
	if err != nil {
		return false, err
	}
	f.nkeys++
	return false, nil
}

// Delete is DeleteOp without a span.
func (f *File) Delete(key string) error { return f.DeleteOp(key, nil) }

// DeleteOp removes the record for key. The multilevel scheme leaves
// bucket merging to the single-level method (the paper studies deletions
// there); an emptied bucket's leaf simply becomes nil and the bucket is
// freed, which sp's merge stage is charged with.
func (f *File) DeleteOp(key string, sp *obs.Span) error {
	if err := f.cfg.Alphabet.Validate(key); err != nil {
		return err
	}
	path, res := f.locate(key)
	sp.Mark(obs.StageTrieSearch)
	if res.Leaf.IsNil() {
		return ErrNotFound
	}
	addr := res.Leaf.Addr()
	b, err := f.st.Read(addr)
	sp.Mark(obs.StageStoreRead)
	if err != nil {
		return err
	}
	if !b.Delete(key) {
		return ErrNotFound
	}
	if b.Len() == 0 && f.cfg.Mode == trie.ModeBasic && f.pages[path[len(path)-1]].tr.LeafCount(addr) == 1 {
		err := f.st.Free(addr)
		sp.Mark(obs.StageMerge)
		if err != nil {
			return err
		}
		f.pages[path[len(path)-1]].tr.FreeToNil(res.Pos)
		f.nkeys--
		return nil
	}
	err = f.st.Write(addr, b)
	sp.Mark(obs.StageStoreWrite)
	if err != nil {
		return err
	}
	f.nkeys--
	return nil
}

// GetBatchOp looks up many keys, one GetOp each: the paged trie has no
// partition pass cheaper than a locate per key. Results align with keys.
func (f *File) GetBatchOp(keys []string, sp *obs.Span) (vals [][]byte, errs []error) {
	vals = make([][]byte, len(keys))
	errs = make([]error, len(keys))
	for i, k := range keys {
		vals[i], errs[i] = f.GetOp(k, sp)
	}
	return vals, errs
}

// PutBatchOp applies the records in input order, one PutOp each, so a key
// named twice ends with its later value.
func (f *File) PutBatchOp(keys []string, values [][]byte, sp *obs.Span) []error {
	errs := make([]error, len(keys))
	for i, k := range keys {
		_, errs[i] = f.PutOp(k, values[i], sp)
	}
	return errs
}

// splitBucket performs the basic method's Algorithm A2 inside the file-
// level page that owns the leaf, then splits that page (and ancestors)
// if the expansion overflowed it.
func (f *File) splitBucket(path []int32, res trie.SearchResult, addr int32, b *bucket.Bucket) error {
	B := b.Keys()
	splitKey := B[f.cfg.SplitPos-1]
	boundKey := B[len(B)-1]
	s := f.cfg.Alphabet.SplitString(splitKey, boundKey)

	newAddr, err := f.st.Alloc()
	if err != nil {
		return err
	}
	filePage := path[len(path)-1]
	moved := b.SplitOff(func(k string) bool { return f.cfg.Alphabet.KeyLEBound(k, s) })
	nb := bucket.New(f.cfg.Capacity)
	// A multi-digit expansion interposes nil leaves, so the new bucket's
	// leaf bound is the split string less its last digit; a single-digit
	// expansion keeps the old bound (Algorithm A2 step 3).
	if cp := keys.CommonPrefixLen(s, b.Bound()); len(s)-cp > 1 {
		nb.SetBound(s[:len(s)-1])
	} else {
		nb.SetBound(b.Bound())
	}
	nb.Absorb(moved)
	b.SetBound(s)
	// New bucket first, old second, trie last (see core.appendSplit).
	if err := f.st.Write(newAddr, nb); err != nil {
		return err
	}
	if err := f.st.Write(addr, b); err != nil {
		return err
	}
	f.pages[filePage].tr.ExpandAt(res.Pos, res.Path, s, addr, newAddr, trie.ModeBasic)
	f.splits++
	f.emit(obs.EvSplit, addr, newAddr, fmt.Sprintf("split string %q", s))
	f.splitPagesUpward(path)
	return nil
}

// splitPagesUpward splits every page along the search path that exceeds
// the page capacity, bottom-up. A long expansion chain can overflow a
// page by several splits' worth; once a first split of an old root page
// has created a fresh root above it, the following splits of the same
// page must graft into that root instead of creating a rival one.
func (f *File) splitPagesUpward(path []int32) {
	for i := len(path) - 1; i >= 0; i-- {
		pid := path[i]
		for f.pages[pid].tr.Cells() > f.cfg.PageCapacity {
			var parent int32 = -1
			if i > 0 {
				parent = path[i-1]
			} else if pid != f.root {
				parent = f.root
			}
			f.splitPage(pid, parent)
		}
	}
	// Promotions may also have overflowed roots created above the
	// located path; keep splitting up the root chain.
	for {
		r := f.root
		if f.pages[r].tr.Cells() <= f.cfg.PageCapacity {
			return
		}
		f.splitPage(r, -1)
		for f.pages[r].tr.Cells() > f.cfg.PageCapacity {
			f.splitPage(r, f.root)
		}
	}
}

// splitPage performs the two phases of Section 2.5: choice of the split
// node r', then the in-order-preserving trie split. r' moves to the parent
// page (a fresh root page when pid is the root), pointing left at the old
// page and right at the new one.
func (f *File) splitPage(pid, parent int32) {
	p := f.pages[pid]
	r := p.tr.ChooseSplitNodeShifted(f.cfg.SplitNodeFrac)
	left, right, cell := p.tr.SplitAt(r)
	p.tr = left
	newID := int32(len(f.pages))
	f.pages = append(f.pages, &page{level: p.level, tr: right})
	f.pageSplits++
	f.emit(obs.EvPageSplit, pid, newID, fmt.Sprintf("level %d", p.level))

	if parent < 0 {
		// Root split: a new root page one level up holds just r'.
		lt := trie.New(f.cfg.Alphabet, pid)
		rt := trie.New(f.cfg.Alphabet, newID)
		rootTr := trie.Graft(cell, lt, rt)
		f.pages = append(f.pages, &page{level: p.level + 1, tr: rootTr})
		f.root = int32(len(f.pages) - 1)
		return
	}
	pos, ok := f.pages[parent].tr.FindLeafAddr(pid)
	if !ok {
		panic(fmt.Sprintf("mlth: page %d not referenced by parent %d", pid, parent))
	}
	f.pages[parent].tr.ReplaceLeafWithCell(pos, cell, trie.Leaf(pid), trie.Leaf(newID))
}

// Range is RangeOp without a span.
func (f *File) Range(from, to string, fn func(key string, value []byte) bool) error {
	return f.RangeOp(from, to, fn, nil)
}

// RangeOp calls fn for every record with from <= key <= to (empty to = no
// upper bound) in ascending key order until fn returns false. The walk
// seeks to from's leaf through one root-to-leaf path of pages and reads
// each bucket it then passes once, through the store's view. Walk time
// between bucket reads is charged to sp's trie-search stage, the reads to
// cache-probe/store-read.
func (f *File) RangeOp(from, to string, fn func(key string, value []byte) bool, sp *obs.Span) error {
	if to != "" && to < from {
		return nil
	}
	alpha := f.cfg.Alphabet
	lastRead := int32(-1)
	var walkErr error
	f.walkFrom(from, true, func(fl fileLeaf) bool {
		// The leaf covers (previous bound, fl.bound]; the walk pruned
		// whole subtrees and pages below from, this guards the boundary
		// leaf.
		if len(fl.bound) > 0 && !alpha.KeyLEBound(from, fl.bound) {
			return true
		}
		if fl.leaf.IsNil() {
			return true
		}
		if addr := fl.leaf.Addr(); addr != lastRead {
			lastRead = addr
			sp.Mark(obs.StageTrieSearch)
			b, err := f.views.View(addr, sp)
			if err != nil {
				walkErr = err
				return false
			}
			if !b.Ascend(from, to, func(r bucket.Record) bool { return fn(r.Key, r.Value) }) {
				return false
			}
		}
		// Stop once this leaf's bound reaches past to.
		return to == "" || len(fl.bound) == 0 || !alpha.KeyLEBound(to, fl.bound)
	})
	sp.Mark(obs.StageTrieSearch)
	return walkErr
}

// fileLeaf is one file-level leaf reported by walkFrom: its page, that
// page's ancestry (root first, the page itself last; it aliases the
// walker's stack, so a callback keeping it must copy it), its slot
// position within the page, its pointer and its full logical-path bound.
type fileLeaf struct {
	page     int32
	ancestry []int32
	pos      trie.Pos
	leaf     trie.Ptr
	bound    []byte
}

// walkFrom is the cross-page in-order walk: it visits the file-level
// leaves in ascending key order, starting at the leaf whose range contains
// from ("" starts at the first leaf), until fn returns false. Each page's
// subtrie is walked with the logical path its parent leaf supplies, so
// bounds are full paths, and the walk enters only child pages not wholly
// below from: a seek costs one root-to-leaf path of pages plus the leaves
// it then visits. Entered pages count as page reads when countReads is
// set; a split's walk does not count, since it revisits the pages its
// Put just located.
func (f *File) walkFrom(from string, countReads bool, fn func(fileLeaf) bool) {
	w := pageWalk{f: f, from: from, countReads: countReads, fn: fn}
	w.walk(f.root, nil)
}

type pageWalk struct {
	f          *File
	from       string
	countReads bool
	ancestry   []int32
	fn         func(fileLeaf) bool
}

// walk visits page pid's leaves, the page's logical path seeded with
// prefix, descending into the child pages its leaves address. It returns
// false when fn stopped the walk.
func (w *pageWalk) walk(pid int32, prefix []byte) bool {
	if w.countReads {
		w.f.pageRead(pid)
	}
	p := w.f.pages[pid]
	w.ancestry = append(w.ancestry, pid)
	cont := p.tr.WalkLeavesFrom(w.from, prefix, func(lp trie.LeafPos) bool {
		switch {
		case p.level == 0:
			return w.fn(fileLeaf{page: pid, ancestry: w.ancestry, pos: lp.Pos, leaf: lp.Leaf, bound: lp.Path})
		case lp.Leaf.IsNil():
			return true // malformed; CheckInvariants reports it
		default:
			return w.walk(lp.Leaf.Addr(), lp.Path)
		}
	})
	w.ancestry = w.ancestry[:len(w.ancestry)-1]
	return cont
}
