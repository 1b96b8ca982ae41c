package core

import (
	"errors"
	"fmt"
	"sync"

	"triehash/internal/bucket"
	"triehash/internal/format"
	"triehash/internal/obs"
	"triehash/internal/store"
	"triehash/internal/trie"
)

// ErrNotFound is returned when a key is absent from the file.
var ErrNotFound = errors.New("core: key not found")

// File is a trie-hashed file: records stored in capacity-b buckets behind a
// TH-trie access function. The trie lives in main memory (its size is a
// small fraction of the file, Section 3.1); buckets move through the Store.
//
// File is not safe for concurrent use; the public triehash package adds
// locking.
type File struct {
	cfg  Config
	trie *trie.Trie
	st   store.Store
	// views is st's read-only path, resolved once at construction (see
	// resolveStore).
	views  store.Views
	nkeys  int
	splits int
	// redistributions counts splits resolved by shifting keys into an
	// existing bucket instead of appending one.
	redistributions int
	// abandoned records bucket slots a failed operation could neither
	// use nor free (a second storage failure during compensation). They
	// hold no live data — at most duplicates of reachable records — and
	// Recover sweeps them. abandonedMu guards the map: the concurrent
	// engine's putSlow calls in distinct subtree stripes prepare splits
	// in parallel, and two failing compensations must not race.
	abandonedMu sync.Mutex
	abandoned   map[int32]bool
	// corruptSlots lists the slot addresses Recover found unreadable
	// (CorruptError): the trie was rebuilt without them, and Scrub is the
	// pass that quarantines them and releases their slots.
	corruptSlots []int32
	// hook carries structural events to an attached observer (nil = off).
	hook *obs.Hook
}

// SetObsHook attaches the observability hook structural events go to.
func (f *File) SetObsHook(h *obs.Hook) { f.hook = h }

// CorruptSlots returns the slot addresses the last Recover found
// unreadable (nil when the store was healthy). A file carrying corrupt
// slots serves every surviving record but fails CheckInvariants until
// Scrub quarantines the damage.
func (f *File) CorruptSlots() []int32 { return append([]int32(nil), f.corruptSlots...) }

// resolveStore caches the store capabilities consulted on hot paths.
// Every constructor (New, Open, Recover, BulkLoad) finishes through it;
// f.st must not change afterwards — readers may run concurrently under
// the public layer's RLock and rely on views being immutable.
func (f *File) resolveStore() *File {
	f.views = store.NewViews(f.st)
	return f
}

// emit sends a structural event, stamping it with the cheap O(1) state
// figures; a no-op (one atomic load) with no observer attached.
func (f *File) emit(t obs.EventType, addr, addr2 int32, detail string) {
	o := f.hook.Observer()
	if o == nil {
		return
	}
	o.Emit(obs.Event{
		Type: t, Addr: addr, Addr2: addr2, Detail: detail,
		Keys: f.nkeys, Buckets: f.st.Buckets(), TrieCells: f.trie.Cells(),
	})
}

// New creates a fresh file over st, which must be empty. The initial state
// matches the paper: bucket 0 allocated, trie equal to leaf 0.
func New(cfg Config, st store.Store) (*File, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if st.Buckets() != 0 {
		return nil, fmt.Errorf("core: store already holds %d buckets", st.Buckets())
	}
	addr, err := st.Alloc()
	if err != nil {
		return nil, err
	}
	if addr != 0 {
		return nil, fmt.Errorf("core: store allocated first bucket at %d, want 0", addr)
	}
	tr := trie.New(cfg.Alphabet, 0)
	tr.SetTombstoning(cfg.TombstoneMerges)
	return (&File{cfg: cfg, trie: tr, st: st}).resolveStore(), nil
}

// Config returns the file's effective configuration (defaults resolved).
func (f *File) Config() Config { return f.cfg }

// SetFormat selects the on-disk encoding version the file's metadata (and
// byte-budget arithmetic) uses. The caller keeps it in lockstep with the
// store's write format. Invalid versions are ignored.
func (f *File) SetFormat(v format.Version) {
	if v.Valid() {
		f.cfg.Format = v
	}
}

// SetPageBudget arms (or with 0 disarms) the byte-budget gate: the
// maximum encoded page size a bucket may reach before it must split.
// Persistent callers pass the store's slot payload.
func (f *File) SetPageBudget(n int) {
	if n >= 0 {
		f.cfg.PageBudget = n
	}
}

// Store exposes the underlying bucket store (for access accounting).
func (f *File) Store() store.Store { return f.st }

// Trie exposes the access structure (read-only use: statistics, dumps).
func (f *File) Trie() *trie.Trie { return f.trie }

// Len returns the number of records in the file.
func (f *File) Len() int { return f.nkeys }

// Splits returns the number of bucket splits performed (redistributions
// included).
func (f *File) Splits() int { return f.splits }

// Redistributions returns how many overflows were absorbed by key shifts
// into existing buckets.
func (f *File) Redistributions() int { return f.redistributions }

// Get is GetOp without a span.
func (f *File) Get(key string) ([]byte, error) { return f.GetOp(key, nil) }

// GetOp returns the value stored under key. A search through an in-core
// trie costs at most one bucket read — zero when the key falls on a nil
// leaf. The read is the store's point lookup (Views.Get): the buffer pool
// searches a resident snapshot without copying it, and the file store
// searches the page in place. sp, when non-nil, is charged the
// trie-search and store-read stages; core never reads the clock itself
// (the determinism analyzer forbids it), every timestamp is taken behind
// Span's methods.
func (f *File) GetOp(key string, sp *obs.Span) ([]byte, error) {
	if err := f.cfg.Alphabet.Validate(key); err != nil {
		return nil, err
	}
	leaf := f.trie.SearchAddr(key)
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

// Has reports whether key is present.
func (f *File) Has(key string) (bool, error) {
	_, err := f.Get(key)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, ErrNotFound):
		return false, nil
	default:
		return false, err
	}
}

// Put is PutOp without a span.
func (f *File) Put(key string, value []byte) (bool, error) { return f.PutOp(key, value, nil) }

// PutOp inserts or replaces the record for key, splitting the target
// bucket on overflow, and reports whether an existing record was
// replaced. Split work is charged to sp's split stage, or to the
// redistribute stage when the overflow resolved by shifting keys into an
// existing neighbour.
func (f *File) PutOp(key string, value []byte, sp *obs.Span) (bool, error) {
	if err := f.cfg.Alphabet.Validate(key); err != nil {
		return false, err
	}
	res := f.trie.Search(key)
	sp.Mark(obs.StageTrieSearch)
	if res.Leaf.IsNil() {
		// Basic method: first insertion choosing a nil leaf allocates
		// its bucket (Section 2.3). The bucket is written before the
		// trie claims the leaf, so a failed write changes nothing.
		addr, err := f.st.Alloc()
		if err != nil {
			return false, err
		}
		b := bucket.New(f.cfg.Capacity)
		b.SetBound(res.Path) // the nil leaf's logical path (TOR83 header)
		b.Put(key, value)
		err = f.st.Write(addr, b)
		sp.Mark(obs.StageStoreWrite)
		if err != nil {
			f.freeBestEffort(addr)
			return false, err
		}
		f.trie.AllocNil(res.Pos, addr)
		f.nkeys++
		f.emit(obs.EvNilAlloc, addr, -1, "")
		return false, nil
	}
	addr := res.Leaf.Addr()
	b, err := f.st.Read(addr)
	sp.Mark(obs.StageStoreRead)
	if err != nil {
		return false, err
	}
	replaced := b.Put(key, value)
	if f.fitsPage(b) {
		err := f.st.Write(addr, b)
		sp.Mark(obs.StageStoreWrite)
		if err != nil {
			return replaced, err
		}
		if !replaced {
			f.nkeys++
		}
		return replaced, nil
	}
	// Overflow: over the record count, or — with the byte budget armed — a
	// replacement whose grown value no longer encodes into the slot.
	rd := f.redistributions
	err = f.split(addr, b)
	if f.redistributions > rd {
		sp.Mark(obs.StageRedistribute)
	} else {
		sp.Mark(obs.StageSplit)
	}
	if err != nil {
		return replaced, err
	}
	if !replaced {
		f.nkeys++
	}
	return replaced, nil
}

// Delete is DeleteOp without a span.
func (f *File) Delete(key string) error { return f.DeleteOp(key, nil) }

// DeleteOp removes the record for key and runs the configured merge
// maintenance, charged to sp's merge stage. It returns ErrNotFound when
// the key is absent.
func (f *File) DeleteOp(key string, sp *obs.Span) error {
	if err := f.cfg.Alphabet.Validate(key); err != nil {
		return err
	}
	res := f.trie.Search(key)
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
	err = f.st.Write(addr, b)
	sp.Mark(obs.StageStoreWrite)
	if err != nil {
		return err
	}
	f.nkeys--
	err = f.maintainAfterDelete(key, res, addr, b)
	sp.Mark(obs.StageMerge)
	return err
}

// Range is RangeOp without a span.
func (f *File) Range(from, to string, fn func(key string, value []byte) bool) error {
	return f.RangeOp(from, to, fn, nil)
}

// RangeOp calls fn for every record with from <= key <= to in ascending
// key order until fn returns false. An empty to means "to the end of the
// file". Because the file is key-ordered, the scan reads each qualifying
// bucket exactly once — consecutive shared leaves of a THCL file cost
// nothing extra. Walk time between bucket accesses is charged to sp's
// trie-search stage, the accesses themselves to cache-probe/store-read.
func (f *File) RangeOp(from, to string, fn func(key string, value []byte) bool, sp *obs.Span) error {
	if to != "" && to < from {
		return nil
	}
	alpha := f.cfg.Alphabet
	lastRead := int32(-1)
	var walkErr error
	f.trie.WalkLeavesFrom(from, nil, func(lp trie.LeafPos) bool {
		// Leaf covers (previous bound, lp.Path]; skip while the upper
		// bound is still below from (the walk already pruned whole
		// subtrees; this guards the boundary leaf).
		if len(lp.Path) > 0 && !alpha.KeyLEBound(from, lp.Path) {
			return true
		}
		if lp.Leaf.IsNil() {
			return true
		}
		addr := lp.Leaf.Addr()
		if addr != lastRead {
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
		if to != "" && len(lp.Path) > 0 && alpha.KeyLEBound(to, lp.Path) {
			return false
		}
		return true
	})
	sp.Mark(obs.StageTrieSearch)
	return walkErr
}

// Min returns the smallest key in the file.
func (f *File) Min() (string, error) {
	k := ""
	err := f.Range("", "", func(key string, _ []byte) bool { k = key; return false })
	if err != nil {
		return "", err
	}
	if k == "" {
		return "", ErrNotFound
	}
	return k, nil
}

// Max returns the largest key in the file by scanning the tail leaves.
func (f *File) Max() (string, error) {
	leaves := f.trie.InorderLeaves()
	last := int32(-1)
	for i := len(leaves) - 1; i >= 0; i-- {
		if leaves[i].Leaf.IsNil() {
			continue
		}
		addr := leaves[i].Leaf.Addr()
		if addr == last {
			continue
		}
		last = addr
		b, err := f.views.View(addr, nil)
		if err != nil {
			return "", err
		}
		if b.Len() > 0 {
			return b.MaxKey(), nil
		}
	}
	return "", ErrNotFound
}
