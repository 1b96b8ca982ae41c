// Package triehash is a Go implementation of trie hashing with controlled
// load (Litwin, Roussopoulos, Levy, Wang), an access method for primary-key
// ordered dynamic files.
//
// Records live in fixed-capacity buckets addressed through a compact binary
// trie whose internal nodes compare one key digit at a time. With the trie
// in main memory, any successful key search costs one bucket access; when
// the trie outgrows memory, a multilevel variant (MLTH) pages it and two
// accesses suffice for very large files. The file is key-ordered, so range
// scans are sequential bucket reads.
//
// Two variants are provided. The basic method (Variant TH) is the original
// trie hashing of /LIT81/: one trie leaf per bucket, nil leaves for key
// ranges without buckets, splits that are partly random. The controlled-
// load refinement (Variant THCL) eliminates nil leaves, lets several
// leaves share a bucket, and accepts a bounding-key position making every
// split deterministic — which pins the load factor of ordered insertions
// anywhere up to 100% and guarantees at least 50% under deletions.
//
// # Quick start
//
//	f, err := triehash.Create(triehash.Options{BucketCapacity: 20})
//	if err != nil { ... }
//	defer f.Close()
//	f.Put("litwin", []byte("trie hashing"))
//	v, err := f.Get("litwin")
//	f.Range("a", "m", func(k string, v []byte) bool { ...; return true })
//
// Use CreateAt/OpenAt for files persisted on disk, and
// Options.PageCapacity for the multilevel variant.
package triehash

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"triehash/internal/core"
	"triehash/internal/format"
	"triehash/internal/keys"
	"triehash/internal/mlth"
	"triehash/internal/obs"
	"triehash/internal/store"
	"triehash/internal/trie"
	"triehash/internal/wal"
)

// ErrNotFound is returned when a key is absent from the file.
var ErrNotFound = errors.New("triehash: key not found")

// ErrClosed is returned by operations on a closed file.
var ErrClosed = errors.New("triehash: file is closed")

// Variant selects the method.
type Variant int

const (
	// THCL is trie hashing with controlled load (the default): no nil
	// leaves, shared leaves, optional deterministic splits and
	// redistribution, guaranteed-load deletions.
	THCL Variant = iota
	// TH is the basic method of /LIT81/.
	TH
)

// Redistribution mirrors the Section 4.4 policies.
type Redistribution int

const (
	// RedistNone appends a new bucket on every overflow.
	RedistNone Redistribution = iota
	// RedistSuccessor shifts keys into the in-order successor first.
	RedistSuccessor
	// RedistPredecessor shifts keys into the in-order predecessor first.
	RedistPredecessor
	// RedistBoth tries the successor, then the predecessor.
	RedistBoth
)

// Options configures a file.
type Options struct {
	// BucketCapacity is the records-per-bucket limit b (default 20).
	BucketCapacity int
	// Variant selects THCL (default) or the basic TH.
	Variant Variant
	// SplitPos is the split-key position m within the b+1 keys of an
	// overflowing bucket (default: the middle, b/2+1). Set it to
	// BucketCapacity before a bulk ascending load — or to 1 before a
	// descending one — to build a compact, fully loaded file.
	SplitPos int
	// BoundPos is THCL's bounding-key position (default b+1, the basic
	// partly-random split). SplitPos+1 makes splits deterministic, which
	// pins ordered-insertion loads exactly and extends the 50% deletion
	// guarantee file-wide.
	BoundPos int
	// Redistribution enables key shifts into neighbour buckets before
	// new ones are appended (THCL only); raises the steady-state load.
	Redistribution Redistribution
	// CollapseOnMerge removes trie cells made redundant by merges.
	CollapseOnMerge bool
	// RotationMerges extends the basic method's deletions with the
	// Section 3.3 rotation refinement, roughly doubling the bucket
	// couples that can merge (Variant TH only).
	RotationMerges bool
	// TombstoneMerges marks merged-away trie cells dead instead of
	// physically removing them — Section 2.4's concurrency-friendly
	// option. Tombstones never reach the disk format.
	TombstoneMerges bool
	// PageCapacity, when positive, selects the multilevel variant
	// (MLTH): the trie is paged, PageCapacity cells per page. Works with
	// both variants; Redistribution and RotationMerges remain
	// single-level features.
	PageCapacity int
	// Binary admits arbitrary binary keys (not ending in 0x00) instead
	// of the default printable-ASCII alphabet.
	Binary bool
	// SlotBytes is the on-disk bucket slot size for persistent files
	// (default 4096).
	SlotBytes int
	// CacheFrames, when positive, places a write-through buffer pool of
	// that many bucket frames in front of the store. The paper's
	// access-cost model assumes no pool (Stats().IO then counts true
	// transfers); a pool trades memory for fewer of them.
	CacheFrames int
	// Concurrent selects the store-backed /VID87/ engine: trie searches
	// run lock-free over an atomic cell arena, point operations latch only
	// their bucket, and the file's global lock is reserved for maintenance
	// (Sync, Close, Scrub, invariant checks) — so reads and writes from
	// many goroutines proceed in parallel instead of serializing. The
	// scheme needs an append-only trie, so it requires the THCL variant on
	// a single-level file with default (guaranteed) merging and no
	// Redistribution, CollapseOnMerge, RotationMerges or TombstoneMerges.
	// A single-threaded workload produces a file byte-identical to the
	// default engine's.
	Concurrent bool
	// WAL turns on the write-ahead log, the hot durability path: every
	// Put/Delete is framed into dir/wal.th and is durable when the call
	// returns, with concurrent writers sharing fsyncs through group commit
	// (under Options.Concurrent the file lock is shared, so commits
	// batch; the serial engines pay one fsync per op). The log is folded
	// into the bucket pages and truncated at every checkpoint — Sync,
	// Close, or CheckpointBytes of log growth — and replayed on open, so
	// a crash loses nothing that was logged. A file that has a wal.th is
	// replayed (and stays WAL-enabled) on OpenAt even when this flag is
	// unset. In-memory files accept WAL too (the log lives in memory):
	// useful for tests and for bounding differential comparisons.
	WAL bool
	// CheckpointBytes is the log size that triggers a background
	// checkpoint (default 1 MiB; only meaningful with WAL).
	CheckpointBytes int64
	// FormatVersion pins the on-disk encoding: 1 is the fixed-width v1
	// layout, 2 the compact varint v2 layout (the default). It covers all
	// three persistent surfaces — bucket pages, trie metadata and the WAL.
	// Files of either version always open; a v1 file reopened without a
	// pin upgrades to the default at its next checkpoint.
	FormatVersion int
}

func (o Options) normalize() Options {
	if o.BucketCapacity == 0 {
		o.BucketCapacity = 20
	}
	if o.SlotBytes == 0 {
		o.SlotBytes = 4096
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 1 << 20
	}
	if o.FormatVersion == 0 {
		o.FormatVersion = int(format.Default)
	}
	return o
}

// formatVersion is the typed form of the (normalized) FormatVersion pin.
func (o Options) formatVersion() format.Version { return format.Version(o.FormatVersion) }

func (o Options) alphabet() keys.Alphabet {
	if o.Binary {
		return keys.Binary
	}
	return keys.ASCII
}

func (o Options) coreConfig() core.Config {
	mode := trie.ModeTHCL
	if o.Variant == TH {
		mode = trie.ModeBasic
	}
	merge := core.MergeDefault
	if o.RotationMerges {
		merge = core.MergeRotations
	}
	return core.Config{
		Alphabet:        o.alphabet(),
		Capacity:        o.BucketCapacity,
		Mode:            mode,
		SplitPos:        o.SplitPos,
		BoundPos:        o.BoundPos,
		Redistribution:  core.Redistribution(o.Redistribution),
		Merge:           merge,
		CollapseOnMerge: o.CollapseOnMerge,
		TombstoneMerges: o.TombstoneMerges,
		Format:          o.formatVersion(),
	}
}

func (o Options) mlthConfig() mlth.Config {
	mode := trie.ModeTHCL
	if o.Variant == TH {
		mode = trie.ModeBasic
	}
	return mlth.Config{
		Alphabet:     o.alphabet(),
		Capacity:     o.BucketCapacity,
		PageCapacity: o.PageCapacity,
		Mode:         mode,
		SplitPos:     o.SplitPos,
		BoundPos:     o.BoundPos,
	}
}

// engine is the operation set every engine implements: one method per
// operation, each taking the operation's span. The span is nil unless the
// attached observer traces spans (obs.Config.Spans); a nil span no-ops
// every mark, so untraced operations run the same bodies.
type engine interface {
	GetOp(key string, sp *obs.Span) ([]byte, error)
	PutOp(key string, value []byte, sp *obs.Span) (bool, error)
	DeleteOp(key string, sp *obs.Span) error
	RangeOp(from, to string, fn func(key string, value []byte) bool, sp *obs.Span) error
	GetBatchOp(keys []string, sp *obs.Span) ([][]byte, []error)
	PutBatchOp(keys []string, values [][]byte, sp *obs.Span) []error
	Len() int
	Store() store.Store
	SaveMeta() []byte
	SetObsHook(*obs.Hook)
	ResetCounters()
}

// File is a trie-hashed file. All methods are safe for concurrent use: by
// default readers proceed under a shared lock while writers serialize; with
// Options.Concurrent the /VID87/ engine lets writers share the lock too,
// isolating them from each other with per-bucket latches over the trie's
// append-only cell table.
type File struct {
	mu    sync.RWMutex
	opts  Options
	alpha keys.Alphabet
	eng   engine
	// concurrent notes the engine does its own fine-grained locking, so
	// mutating operations take mu shared and only maintenance takes it
	// exclusive. Immutable after construction (conc itself is swapped by
	// Scrub under the exclusive lock).
	concurrent bool
	single     *core.File           // nil for multilevel and concurrent files
	multi      *mlth.File           // nil for single-level files
	conc       *core.ConcurrentFile // nil unless Options.Concurrent
	dir        string               // "" for in-memory files
	closed     bool
	// maxRecord bounds key+value bytes for persistent files so a bucket
	// of capacity b records always fits its slot; 0 = unbounded.
	maxRecord int
	// hook is the observability attachment point every layer shares; an
	// observer set through Observe becomes visible to all of them with
	// one atomic store. Nil observer = everything disabled.
	hook *obs.Hook
	// recovered notes the file was rebuilt by RecoverAt, so Observe can
	// replay the fact as an event (the observer attaches after recovery).
	recovered bool
	// walReplayed / walTornTail record what WAL replay did at open, for
	// the same Observe-time replay (and for thcheck's report).
	walReplayed int
	walTornTail string
	// log is the write-ahead log (Options.WAL), nil when durability runs
	// on the fsync-rename-salvage path alone. Written only before the file
	// is published — never cleared, not even by Close, because operation
	// tails read it without the lock (maybeCheckpoint); Close closes the
	// log and the closed flag fences further use.
	log *wal.Log
	// ckptBusy serializes the size-triggered background checkpoint so at
	// most one operation tail promotes itself to the exclusive lock.
	ckptBusy atomic.Bool
}

// instrument builds the file's observability hook and threads it through
// the store stack: every layer that can report (cache, fault injector)
// gets the hook, and an Instrumented wrapper goes outermost so cache hits
// and injected faults are timed like true transfers.
func instrument(st store.Store) (store.Store, *obs.Hook) {
	h := &obs.Hook{}
	for s := st; s != nil; {
		if hs, ok := s.(interface{ SetObsHook(*obs.Hook) }); ok {
			hs.SetObsHook(h)
		}
		u, ok := s.(store.Unwrapper)
		if !ok {
			break
		}
		s = u.Unwrap()
	}
	return store.NewInstrumented(st, h), h
}

// Create returns an in-memory file (a simulated disk with exact access
// counting, the configuration the paper's experiments use).
func Create(opts Options) (*File, error) {
	f, err := create(opts, "", wrapCache(opts, store.NewMem()))
	if err != nil {
		return nil, err
	}
	if f.opts.WAL {
		// An in-memory WAL buys nothing across a process crash, but it
		// exercises the exact logging path, so tests and differential
		// comparisons run it against the real durability code.
		if err := f.attachWAL(wal.NewMem()); err != nil {
			_ = f.eng.Store().Close()
			return nil, err
		}
	}
	return f, nil
}

// wrapCache applies the optional buffer pool.
func wrapCache(opts Options, st store.Store) store.Store {
	if opts.CacheFrames <= 0 {
		return st
	}
	return store.NewSharded(st, opts.CacheFrames, 0)
}

// CreateAt creates a persistent file in directory dir (created if needed):
// bucket slots in dir/buckets.th, trie and metadata in dir/meta.th on
// Sync or Close.
func CreateAt(dir string, opts Options) (*File, error) {
	opts = opts.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fs, err := store.CreateFile(filepath.Join(dir, "buckets.th"), opts.SlotBytes)
	if err != nil {
		return nil, err
	}
	if err := fs.SetCapacityHint(opts.BucketCapacity); err != nil {
		_ = fs.Close()
		return nil, err
	}
	f, err := create(opts, dir, wrapCache(opts, fs))
	if err != nil {
		_ = fs.Close() // the create error takes precedence
		return nil, err
	}
	f.armPersistent(fs)
	f.setRecordLimit()
	// A fresh file must not inherit a previous tenant's log: a stale
	// wal.th would otherwise be replayed into it on the next OpenAt.
	if err := os.Remove(walPath(dir)); err != nil && !errors.Is(err, os.ErrNotExist) {
		_ = fs.Close()
		return nil, err
	}
	if opts.WAL {
		dev, err := wal.OpenFileDevice(walPath(dir))
		if err != nil {
			_ = fs.Close()
			return nil, err
		}
		if err := f.attachWAL(dev); err != nil {
			_ = fs.Close()
			return nil, err
		}
	}
	return f, nil
}

// setRecordLimit derives the per-record byte budget from the slot size.
// Multilevel files keep the conservative rule: a full bucket of
// BucketCapacity+1 records (the transient overflow state is never
// written, but splits write full buckets) must serialize within the slot
// payload. The single-level engines gate every write on the exact encoded
// page size and split early when a slot would overflow, so their static
// limit only has to keep any one record from dominating a slot — a page
// must always be able to hold at least two records plus its bound.
func (f *File) setRecordLimit() {
	const slotOverhead = 9 + 8 // slot header + bucket bound header
	payload := f.opts.SlotBytes - slotOverhead
	per := payload/f.opts.BucketCapacity - 8 // per-record length prefixes
	if f.multi == nil {
		if q := payload/4 - 8; q > per {
			per = q
		}
	}
	if per < 1 {
		per = 1
	}
	f.maxRecord = per
}

// armPersistent points the persistent store at the file's write format
// and, for the single-level engines (whose writes are byte-gated), arms
// the page budget with the store's slot payload. An unset or invalid pin
// leaves every layer at its default (the compact v2 format).
func (f *File) armPersistent(fs *store.FileStore) {
	v := f.opts.formatVersion()
	fs.SetFormat(v)
	budget := fs.PayloadSize()
	switch {
	case f.single != nil:
		f.single.SetFormat(v)
		f.single.SetPageBudget(budget)
	case f.conc != nil:
		f.conc.SetFormat(v)
		f.conc.SetPageBudget(budget)
	case f.multi != nil:
		f.multi.SetFormat(v)
	}
}

func create(opts Options, dir string, st store.Store) (*File, error) {
	opts = opts.normalize()
	if !opts.formatVersion().Valid() {
		return nil, fmt.Errorf("triehash: unknown FormatVersion %d", opts.FormatVersion)
	}
	f := &File{opts: opts, alpha: opts.alphabet(), dir: dir}
	st, f.hook = instrument(st)
	if opts.PageCapacity > 0 {
		if opts.Redistribution != RedistNone || opts.RotationMerges {
			return nil, fmt.Errorf("triehash: redistribution and rotation merges are single-level features")
		}
		if opts.Concurrent {
			return nil, fmt.Errorf("triehash: the concurrent engine is a single-level feature; omit PageCapacity")
		}
		m, err := mlth.New(opts.mlthConfig(), st)
		if err != nil {
			return nil, err
		}
		m.SetObsHook(f.hook)
		m.SetFormat(opts.formatVersion())
		f.multi, f.eng = m, m
		return f, nil
	}
	c, err := core.New(opts.coreConfig(), st)
	if err != nil {
		return nil, err
	}
	c.SetObsHook(f.hook)
	if opts.Concurrent {
		return f.adoptConcurrent(c)
	}
	f.single, f.eng = c, c
	return f, nil
}

// adoptConcurrent wraps a freshly built (or reopened) core engine in the
// concurrent one and installs it as the file's engine.
func (f *File) adoptConcurrent(c *core.File) (*File, error) {
	ce, err := core.NewConcurrent(c)
	if err != nil {
		return nil, err
	}
	f.concurrent = true
	f.conc, f.eng = ce, ce
	return f, nil
}

// BulkLoad builds a file in one pass from records supplied in strictly
// ascending key order — the natural way to create the paper's compact
// files. Records are packed fill·BucketCapacity per bucket (fill in
// (0, 1]; 1 = the 100% compact file) and the trie is reconstructed from
// the bucket boundaries, arriving balanced. dir = "" builds in memory.
// next returns one record at a time and ok=false at the end.
func BulkLoad(dir string, opts Options, fill float64, next func() (key string, value []byte, ok bool)) (*File, error) {
	opts = opts.normalize()
	if opts.PageCapacity > 0 {
		return nil, fmt.Errorf("triehash: bulk loading builds a single-level trie; omit PageCapacity")
	}
	var fs *store.FileStore
	var st store.Store = store.NewMem()
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		fs, err = store.CreateFile(filepath.Join(dir, "buckets.th"), opts.SlotBytes)
		if err != nil {
			return nil, err
		}
		if err := fs.SetCapacityHint(opts.BucketCapacity); err != nil {
			_ = fs.Close()
			return nil, err
		}
		fs.SetFormat(opts.formatVersion())
		st = fs
	}
	st = wrapCache(opts, st)
	st, hook := instrument(st)
	cfg := opts.coreConfig()
	if fs != nil {
		// Persistent loads pack against the slot payload as well as the
		// record count, so a run of large records cannot overflow a slot.
		cfg.PageBudget = fs.PayloadSize()
	}
	c, err := core.BulkLoad(cfg, st, fill, next)
	if err != nil {
		_ = st.Close() // the load error takes precedence
		return nil, err
	}
	c.SetObsHook(hook)
	f := &File{opts: opts, alpha: opts.alphabet(), dir: dir, hook: hook}
	if opts.Concurrent {
		if _, err := f.adoptConcurrent(c); err != nil {
			_ = st.Close()
			return nil, err
		}
	} else {
		f.single, f.eng = c, c
	}
	if dir != "" {
		f.armPersistent(fs)
		f.setRecordLimit()
		if err := f.syncLocked(); err != nil {
			_ = f.eng.Store().Close() // the sync error takes precedence
			return nil, err
		}
		// Same fresh-file rule as CreateAt: discard any stale log.
		if err := os.Remove(walPath(dir)); err != nil && !errors.Is(err, os.ErrNotExist) {
			_ = f.eng.Store().Close()
			return nil, err
		}
	}
	if opts.WAL {
		var dev wal.Device = wal.NewMem()
		if dir != "" {
			fd, err := wal.OpenFileDevice(walPath(dir))
			if err != nil {
				_ = f.eng.Store().Close()
				return nil, err
			}
			dev = fd
		}
		if err := f.attachWAL(dev); err != nil {
			_ = f.eng.Store().Close()
			return nil, err
		}
	}
	return f, nil
}

// RecoverAt rebuilds a persistent file whose metadata (dir/meta.th) was
// lost or corrupted, using only the bucket file: every bucket's header
// carries its logical-path bound, from which an equivalent — usually
// better balanced — trie is reconstructed (the /TOR83/ recovery the
// paper's conclusion describes). The original bucket capacity is taken
// from opts.BucketCapacity when supplied, else from the bucket file's
// capacity hint, else inferred from the fullest surviving bucket (a
// lower bound — a never-filled file recovers with earlier splits, which
// is safe). The recovered file continues under the THCL variant, and the
// rebuilt metadata is written back before returning. opts.CacheFrames
// places a buffer pool in front of it, as on OpenAtWith.
//
// Buckets whose slots no longer read back (torn writes, bit rot) are
// skipped: the rebuilt trie serves every surviving record, but the file
// fails Check until Scrub quarantines the damaged slots.
func RecoverAt(dir string, opts Options) (*File, error) {
	if opts.PageCapacity > 0 {
		return nil, fmt.Errorf("triehash: recovery of multilevel files is not supported (rebuild yields a single-level trie; open it without PageCapacity)")
	}
	fs, err := store.OpenFile(filepath.Join(dir, "buckets.th"))
	if err != nil {
		return nil, err
	}
	if opts.BucketCapacity == 0 {
		if h := fs.CapacityHint(); h > 0 {
			opts.BucketCapacity = h
		} else if b := fullestBucket(fs); b > 0 {
			opts.BucketCapacity = b
		}
	}
	opts = opts.normalize()
	opts.SlotBytes = fs.SlotSize()
	st, hook := instrument(wrapCache(opts, fs))
	c, err := core.Recover(opts.coreConfig(), st)
	if err != nil {
		_ = fs.Close() // the recovery error takes precedence
		return nil, err
	}
	c.SetObsHook(hook)
	if fs.CapacityHint() == 0 {
		// Repair the missing redundancy while we are here (pre-hint file).
		_ = fs.SetCapacityHint(c.Config().Capacity)
	}
	f := &File{opts: opts, alpha: opts.alphabet(), dir: dir, hook: hook, recovered: true}
	if opts.Concurrent {
		if _, err := f.adoptConcurrent(c); err != nil {
			_ = fs.Close()
			return nil, err
		}
	} else {
		f.single, f.eng = c, c
	}
	f.armPersistent(fs)
	f.setRecordLimit()
	if err := f.syncLocked(); err != nil {
		_ = f.eng.Store().Close() // the sync error takes precedence
		return nil, err
	}
	// The rebuild served tier 3 (bucket bounds); the log, when present,
	// now restores tier 1 on top of it — the operations committed after
	// the buckets last hit the medium.
	if err := f.maybeAttachWALAt(dir, opts); err != nil {
		_ = f.eng.Store().Close()
		return nil, err
	}
	return f, nil
}

// fullestBucket scans the store for the largest surviving record count —
// the lower bound on the lost file's bucket capacity RecoverAt falls back
// to when the header hint is absent.
func fullestBucket(st store.Store) int {
	max := 0
	for addr := int32(0); addr < st.MaxAddr(); addr++ {
		b, err := st.Read(addr)
		if err != nil {
			continue
		}
		if b.Len() > max {
			max = b.Len()
		}
	}
	return max
}

// OpenAt reopens a file previously created with CreateAt and synced.
//
// When dir/meta.th is missing, truncated or fails its checksum, OpenAt
// falls back to salvage: the trie is reconstructed from the bucket file
// alone (RecoverAt) and fresh metadata is written back. The salvaged file
// serves every record whose bucket survives — buckets the medium damaged
// are skipped and left for Scrub (or thcheck -repair) to quarantine. Only
// when the bucket file itself is unusable does OpenAt fail.
func OpenAt(dir string) (*File, error) {
	return OpenAtWith(dir, Options{})
}

// OpenAtWith reopens a file with runtime options applied. The file's
// structural configuration (capacity, variant, split positions) comes from
// its metadata; opts contributes only the per-open choices — CacheFrames
// for a buffer pool, Concurrent for the /VID87/ engine, WAL and its
// checkpoint and format choices — and the rest of opts is ignored.
func OpenAtWith(dir string, opts Options) (*File, error) {
	meta, err := os.ReadFile(filepath.Join(dir, "meta.th"))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		return salvageAt(dir, opts, err)
	}
	fs, err := store.OpenFile(filepath.Join(dir, "buckets.th"))
	if err != nil {
		return nil, err
	}
	st, hook := instrument(wrapCache(opts, fs))
	f := &File{dir: dir, hook: hook}
	c, cerr := core.Open(meta, st)
	if cerr == nil {
		fs.ClaimReferenced(c.BucketAddrs())
		c.SetObsHook(hook)
		f.alpha = c.Config().Alphabet
		f.opts = Options{
			BucketCapacity: c.Config().Capacity, SlotBytes: fs.SlotSize(),
			CacheFrames: opts.CacheFrames, Concurrent: opts.Concurrent, WAL: opts.WAL,
			CheckpointBytes: opts.CheckpointBytes, FormatVersion: opts.FormatVersion,
		}
		if opts.Concurrent {
			if _, err := f.adoptConcurrent(c); err != nil {
				_ = fs.Close()
				return nil, err
			}
		} else {
			f.single, f.eng = c, c
		}
		f.armPersistent(fs)
		f.setRecordLimit()
		if err := f.maybeAttachWALAt(dir, opts); err != nil {
			_ = fs.Close()
			return nil, err
		}
		return f, nil
	}
	// A metadata version newer than this build is NOT damage: the bytes
	// are intact and a future build owns them. Refuse to open rather than
	// fall through to salvage, which would rebuild (and overwrite) a file
	// this build cannot faithfully read.
	var unknown *format.UnknownVersionError
	if errors.As(cerr, &unknown) {
		_ = fs.Close()
		return nil, fmt.Errorf("triehash: open %s: %w", dir, cerr)
	}
	m, merr := mlth.Open(meta, st)
	if merr != nil {
		_ = fs.Close() // salvage reopens the bucket file itself
		if errors.As(merr, &unknown) {
			return nil, fmt.Errorf("triehash: open %s: %w", dir, merr)
		}
		return salvageAt(dir, opts, fmt.Errorf("%s holds neither a single-level nor a multilevel file: %w", dir, merr))
	}
	if opts.Concurrent {
		_ = fs.Close()
		return nil, fmt.Errorf("triehash: %s is a multilevel file; the concurrent engine is a single-level feature", dir)
	}
	fs.ClaimReferenced(m.BucketAddrs())
	m.SetObsHook(hook)
	f.multi, f.eng = m, m
	f.alpha = m.Alphabet()
	f.opts = Options{
		BucketCapacity: m.Capacity(), SlotBytes: fs.SlotSize(),
		WAL: opts.WAL, CheckpointBytes: opts.CheckpointBytes,
		FormatVersion: opts.FormatVersion,
	}
	f.armPersistent(fs)
	f.setRecordLimit()
	if err := f.maybeAttachWALAt(dir, opts); err != nil {
		_ = fs.Close()
		if errors.Is(err, errWALNeedsSalvage) {
			// The log demands replay over buckets the paged trie no longer
			// matches; multilevel files cannot Scrub in place, so take the
			// same path a damaged multilevel metadata file takes.
			return salvageAt(dir, opts, err)
		}
		return nil, err
	}
	return f, nil
}

// salvageAt is OpenAt's fallback when the metadata is lost: reconstruct
// from the buckets, reporting both failures if even that is impossible.
func salvageAt(dir string, opts Options, cause error) (*File, error) {
	f, err := RecoverAt(dir, Options{
		CacheFrames: opts.CacheFrames, Concurrent: opts.Concurrent,
		WAL: opts.WAL, CheckpointBytes: opts.CheckpointBytes,
		FormatVersion: opts.FormatVersion,
	})
	if err != nil {
		return nil, fmt.Errorf("triehash: %s: metadata unusable (%v) and salvage failed: %w", dir, cause, err)
	}
	return f, nil
}

// ErrRecordTooLarge is returned by Put on a persistent file when
// len(key)+len(value) cannot be guaranteed to fit the bucket slot.
var ErrRecordTooLarge = errors.New("triehash: record too large for the configured SlotBytes")

// checkRecord is the persistent file's record-size gate: a record whose
// key and value together exceed maxRecord cannot be guaranteed to fit its
// bucket slot.
func (f *File) checkRecord(key string, value []byte) error {
	if n := len(key) + len(value); f.maxRecord > 0 && n > f.maxRecord {
		return fmt.Errorf("%w: %d bytes, limit %d (raise SlotBytes or lower BucketCapacity)",
			ErrRecordTooLarge, n, f.maxRecord)
	}
	return nil
}

// call is one public data operation in flight: which operation, its
// arguments and, once run returns, its results. Every exported data
// operation fills one in and hands it to run.
type call struct {
	op     obs.Op
	key    string // Get, Put, Delete; Range's lower bound
	to     string // Range's upper bound
	value  []byte // Put's record; Get's result
	fn     func(key string, value []byte) bool
	keys   []string
	values [][]byte // PutBatch's records; GetBatch's results
	errs   []error  // the batches' per-record results
}

// run is the one path every public data operation takes. The prologue
// starts the operation's span (spans on) or clock (histograms only)
// before taking the file lock, so span totals and histogram samples both
// cover the lock wait — a stall behind a checkpoint included — and the
// span charges that wait to its file_lock stage; then a closed file
// fails. The body dispatches to the engine and logs mutations to the WAL.
// The epilogue releases the lock and records the sample: FinishSpan for
// a span, RecordOp for a histogram clock.
func (f *File) run(c *call) error {
	o := f.hook.Observer()
	sp := o.StartSpan(c.op)
	defer o.FinishSpan(sp)
	if sp == nil && o != nil {
		defer recordSince(o, c.op, time.Now())
	}
	unlock := f.lock(c.op)
	defer unlock(&f.mu)
	sp.Mark(obs.StageFileLock)
	if f.closed {
		return ErrClosed
	}
	var err error
	switch c.op {
	case obs.OpGet:
		c.value, err = f.eng.GetOp(c.key, sp)
	case obs.OpRange:
		err = f.eng.RangeOp(c.key, c.to, c.fn, sp)
	case obs.OpGetBatch:
		c.values, c.errs = f.eng.GetBatchOp(c.keys, sp)
		for i, e := range c.errs {
			c.errs[i] = mapNotFound(e)
		}
	case obs.OpPut:
		if err = f.checkRecord(c.key, c.value); err == nil {
			if _, err = f.eng.PutOp(c.key, c.value, sp); err == nil {
				err = f.walAppend(wal.OpPut, c.key, c.value, sp)
			}
		}
	case obs.OpDelete:
		if err = f.eng.DeleteOp(c.key, sp); err == nil {
			err = f.walAppend(wal.OpDelete, c.key, nil, sp)
		}
	case obs.OpPutBatch:
		ks, vs, idx := f.admit(c.keys, c.values, c.errs)
		for j, e := range f.eng.PutBatchOp(ks, vs, sp) {
			i := j
			if idx != nil {
				i = idx[j]
			}
			c.errs[i] = mapNotFound(e)
		}
		f.walAppendBatch(c.keys, c.values, c.errs, sp)
	}
	return mapNotFound(err)
}

// lock takes the file lock for one operation: shared for reads, and for
// writes under the concurrent engine (whose bucket latches isolate
// writers from each other, leaving the exclusive side to maintenance —
// Sync, Close, Scrub, CheckInvariants); exclusive for writes otherwise.
// It returns the matching release as a method expression, which — unlike
// a bound f.mu.Unlock — costs no allocation.
func (f *File) lock(op obs.Op) func(*sync.RWMutex) {
	if f.concurrent || op == obs.OpGet || op == obs.OpRange || op == obs.OpGetBatch {
		f.mu.RLock()
		return (*sync.RWMutex).RUnlock
	}
	f.mu.Lock()
	return (*sync.RWMutex).Unlock
}

// recordSince records a histogram-only observer's sample of op, timed
// from start.
func recordSince(o *obs.Observer, op obs.Op, start time.Time) {
	o.RecordOp(op, time.Since(start))
}

// Put inserts or replaces the record for key. With Options.WAL the call
// returns only after the record is durable in the log (group-committed
// alongside concurrent writers). The file may keep value after Put
// returns (an in-memory file stores the slice itself), so the caller
// must not modify it.
func (f *File) Put(key string, value []byte) error {
	err := f.run(&call{op: obs.OpPut, key: key, value: value})
	f.maybeCheckpoint()
	return err
}

// Get returns the value stored under key, or ErrNotFound. The value may
// alias the file's record (an in-memory file or a buffer-pool frame hands
// out its own bytes), so the caller must not modify it.
func (f *File) Get(key string) ([]byte, error) {
	c := call{op: obs.OpGet, key: key}
	err := f.run(&c)
	return c.value, err
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

// Delete removes the record for key, or returns ErrNotFound. With
// Options.WAL a successful delete is durable in the log when the call
// returns.
func (f *File) Delete(key string) error {
	err := f.run(&call{op: obs.OpDelete, key: key})
	f.maybeCheckpoint()
	return err
}

// Range calls fn for every record with from <= key <= to in ascending key
// order until fn returns false. An empty to scans to the end of the file.
// Each value may alias the file's record, as Get's does: fn must not
// modify it.
func (f *File) Range(from, to string, fn func(key string, value []byte) bool) error {
	return f.run(&call{op: obs.OpRange, key: from, to: to, fn: fn})
}

// Len returns the number of records.
func (f *File) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.eng.Len()
}

// Sync writes the trie and metadata (and flushes bucket slots) for
// persistent files; it is a no-op for in-memory files.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncLocked()
}

func (f *File) syncLocked() error {
	if f.closed {
		return ErrClosed
	}
	if f.log != nil {
		// With the WAL attached, Sync is a checkpoint: fold the log into
		// the bucket pages and truncate it, with one batched directory
		// sync instead of one per metadata install.
		return f.checkpointLocked()
	}
	if f.dir == "" {
		return nil
	}
	return f.installMeta(true)
}

// installMeta flushes the bucket slots and durably installs the trie
// metadata. dirSync selects whether the rename's directory fsync happens
// here (the standalone path) or is deferred to the caller — the WAL
// checkpoint batches it with the rest of the fold, fixing the
// fsync-ordering cliff of a directory sync per install.
func (f *File) installMeta(dirSync bool) error {
	if fs := store.AsFileStore(f.eng.Store()); fs != nil {
		if err := fs.Sync(); err != nil {
			return err
		}
	}
	// The classic atomic-replace dance, with both fsyncs that make it
	// durable: the tmp file is synced before the rename (otherwise the
	// rename can land while the contents are still in the page cache, and
	// a crash leaves a valid-looking empty meta file), and the directory
	// is synced after it (otherwise the rename itself may not survive).
	tmp := filepath.Join(f.dir, "meta.th.tmp")
	if err := store.WriteFileDurable(tmp, f.eng.SaveMeta()); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(f.dir, "meta.th")); err != nil {
		return err
	}
	if !dirSync {
		return nil
	}
	return store.SyncDir(f.dir)
}

// checkpointLocked folds the write-ahead log into the bucket pages and
// truncates it. The order is load-bearing: buckets and metadata must be
// durable — directory sync included — before the log shrinks, because
// truncation destroys the only other copy of the logged operations. A
// crash at any interior point leaves either the old meta + the full log
// (replay covers everything) or the new meta + a longer-than-needed log
// (replay is idempotent), both of which converge on open.
func (f *File) checkpointLocked() error {
	if f.closed {
		return ErrClosed
	}
	if f.dir != "" {
		if err := f.installMeta(false); err != nil {
			return err
		}
		if err := store.SyncDir(f.dir); err != nil {
			return err
		}
	}
	return f.log.Checkpoint()
}

// maybeCheckpoint runs a checkpoint when the log has outgrown
// Options.CheckpointBytes. Called on operation tails after the file lock
// is released; the CAS gate picks one caller, everyone else returns
// immediately. A checkpoint failure is not the operation's failure — the
// operation is already durable in the log — so it is not propagated; the
// log keeps growing and the next trigger (or Sync/Close, whose errors do
// propagate) retries the fold.
func (f *File) maybeCheckpoint() {
	if f.log == nil || f.log.Size() < f.opts.CheckpointBytes {
		return
	}
	if !f.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	defer f.ckptBusy.Store(false)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.log.Size() < f.opts.CheckpointBytes {
		return
	}
	_ = f.checkpointLocked()
}

// Close syncs (for persistent files) and releases the file. With the WAL
// attached the final sync is a checkpoint, so the log is empty (one
// checkpoint marker) after a clean close and replay on the next open has
// nothing to do.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	err := f.syncLocked()
	f.closed = true
	if f.log != nil {
		if cerr := f.log.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := f.eng.Store().Close(); err == nil {
		err = cerr
	}
	return err
}

func mapNotFound(err error) error {
	if errors.Is(err, core.ErrNotFound) || errors.Is(err, mlth.ErrNotFound) {
		return ErrNotFound
	}
	return err
}
