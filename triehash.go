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
	// into the bucket pages and rewound at every checkpoint — Sync,
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

// validated returns o with its defaults filled in, or the error every
// entry point refuses it with: a format pin this build does not know, or
// a single-level feature asked of a multilevel file.
func (o Options) validated() (Options, error) {
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
	switch v := o.formatVersion(); {
	case int(v) != o.FormatVersion || !v.Valid():
		return o, fmt.Errorf("triehash: unknown FormatVersion %d", o.FormatVersion)
	case o.PageCapacity > 0 && (o.Redistribution != RedistNone || o.RotationMerges):
		return o, fmt.Errorf("triehash: redistribution and rotation merges are single-level features")
	case o.PageCapacity > 0 && o.Concurrent:
		return o, fmt.Errorf("triehash: the concurrent engine is a single-level feature; omit PageCapacity")
	}
	return o, nil
}

// formatVersion is the typed form of the (validated) FormatVersion pin.
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

// wrapCache applies the optional buffer pool.
func wrapCache(opts Options, st store.Store) store.Store {
	if opts.CacheFrames <= 0 {
		return st
	}
	return store.NewSharded(st, opts.CacheFrames, 0)
}

// origin is how an entry point came by its engine, which decides what
// assemble does besides installing it.
type origin int

const (
	fromEmpty   origin = iota // Create, CreateAt: a new, empty file
	fromRecords               // BulkLoad: a new file packed from records
	fromBuckets               // RecoverAt: rebuilt from the bucket bounds
	fromMeta                  // OpenAtWith: reattached to its metadata
)

// assemble is the one way a File is built. The entry point supplies the
// validated options, the directory ("" in memory), the bucket store under
// the file, the file's origin and the constructor that builds its engine
// over the store stack. assemble does the rest, in this order:
//
//   - it adds the optional buffer pool and the observability hook;
//   - over a bucket file it sets the format pin before the engine is
//     built, so the pin covers the engine's first write;
//   - it installs the engine and, over a bucket file, sets the record
//     limit;
//   - a new persistent file (fromEmpty, fromRecords) drops the log a
//     previous tenant left in dir, which would otherwise be replayed into
//     it on the next OpenAt;
//   - it attaches the log (logDevice, attachWAL), whose checkpoint installs
//     the metadata; a persistent file without a log whose trie was built
//     from bucket contents (fromRecords, fromBuckets) gets its metadata
//     written instead, so either way it is installed once.
//
// On any failure it closes the store stack.
func assemble(opts Options, dir string, base store.Store, from origin, build func(store.Store) (engine, error)) (f *File, err error) {
	st, hook := instrument(wrapCache(opts, base))
	defer func() {
		if err != nil {
			_ = st.Close() // the assembly error takes precedence
		}
	}()
	fs := store.AsFileStore(base)
	if fs != nil {
		fs.SetFormat(opts.formatVersion())
		opts.SlotBytes = fs.SlotSize()
	}
	e, err := build(st)
	if err != nil {
		return nil, err
	}
	f = &File{opts: opts, dir: dir, hook: hook, concurrent: opts.Concurrent, recovered: from == fromBuckets}
	if f.alpha, f.opts.BucketCapacity, err = f.install(e); err != nil {
		return nil, err
	}
	if fs != nil {
		f.setRecordLimit()
	}
	if dir != "" && (from == fromEmpty || from == fromRecords) {
		if err := os.Remove(walPath(dir)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	dev, err := f.logDevice()
	if err != nil {
		return nil, err
	}
	if dev != nil {
		if err := f.attachWAL(dev); err != nil {
			return nil, err
		}
		return f, nil
	}
	if dir != "" && (from == fromRecords || from == fromBuckets) {
		if err := f.installMeta(true); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// install makes e, a core or multilevel engine just built or rebuilt, the
// file's engine: it attaches the hook, applies the format pin and, over a
// bucket file, the page budget, and wraps a core engine in the concurrent
// one when the options ask for it. It returns e's alphabet and bucket
// capacity. Call before the file is published, or under the exclusive
// lock.
func (f *File) install(e engine) (keys.Alphabet, int, error) {
	v := f.opts.formatVersion()
	if m, ok := e.(*mlth.File); ok {
		if f.opts.Concurrent {
			return m.Alphabet(), m.Capacity(), fmt.Errorf("triehash: %s is a multilevel file; the concurrent engine is a single-level feature", f.dir)
		}
		m.SetObsHook(f.hook)
		m.SetFormat(v)
		f.multi, f.eng = m, m
		return m.Alphabet(), m.Capacity(), nil
	}
	c := e.(*core.File)
	c.SetObsHook(f.hook)
	c.SetFormat(v)
	if fs := store.AsFileStore(c.Store()); fs != nil {
		c.SetPageBudget(fs.PayloadSize())
	}
	cfg := c.Config()
	if !f.opts.Concurrent {
		f.single, f.eng = c, c
		return cfg.Alphabet, cfg.Capacity, nil
	}
	ce, err := core.NewConcurrent(c)
	if err != nil {
		return cfg.Alphabet, cfg.Capacity, err
	}
	f.conc, f.eng = ce, ce
	return cfg.Alphabet, cfg.Capacity, nil
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

// createBuckets makes dir, if needed, and a new bucket file in it whose
// header records the bucket capacity.
func createBuckets(dir string, opts Options) (*store.FileStore, error) {
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
	return fs, nil
}

// Create returns an in-memory file (a simulated disk with exact access
// counting, the configuration the paper's experiments use).
func Create(opts Options) (*File, error) {
	return create(opts, "", store.NewMem())
}

// CreateAt creates a persistent file in directory dir (created if needed):
// bucket slots in dir/buckets.th, trie and metadata in dir/meta.th on
// Sync or Close.
func CreateAt(dir string, opts Options) (*File, error) {
	opts, err := opts.validated()
	if err != nil {
		return nil, err
	}
	fs, err := createBuckets(dir, opts)
	if err != nil {
		return nil, err
	}
	return create(opts, dir, fs)
}

// create builds a new, empty file over st in directory dir ("" for an
// in-memory file).
func create(opts Options, dir string, st store.Store) (*File, error) {
	opts, err := opts.validated()
	if err != nil {
		return nil, err
	}
	return assemble(opts, dir, st, fromEmpty, func(st store.Store) (engine, error) {
		if opts.PageCapacity > 0 {
			return mlth.New(opts.mlthConfig(), st)
		}
		return core.New(opts.coreConfig(), st)
	})
}

// BulkLoad builds a file in one pass from records supplied in strictly
// ascending key order — the natural way to create the paper's compact
// files. Records are packed fill·BucketCapacity per bucket (fill in
// (0, 1]; 1 = the 100% compact file) and the trie is reconstructed from
// the bucket boundaries, arriving balanced. dir = "" builds in memory.
// next returns one record at a time and ok=false at the end.
func BulkLoad(dir string, opts Options, fill float64, next func() (key string, value []byte, ok bool)) (*File, error) {
	opts, err := opts.validated()
	if err != nil {
		return nil, err
	}
	if opts.PageCapacity > 0 {
		return nil, fmt.Errorf("triehash: bulk loading builds a single-level trie; omit PageCapacity")
	}
	cfg := opts.coreConfig()
	var st store.Store = store.NewMem()
	if dir != "" {
		fs, err := createBuckets(dir, opts)
		if err != nil {
			return nil, err
		}
		// Persistent loads pack against the slot payload as well as the
		// record count, so a run of large records cannot overflow a slot.
		cfg.PageBudget = fs.PayloadSize()
		st = fs
	}
	return assemble(opts, dir, st, fromRecords, func(st store.Store) (engine, error) {
		return core.BulkLoad(cfg, st, fill, next)
	})
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
// places a buffer pool in front of it, as on OpenAtWith. When dir holds a
// log, it is replayed on top of the rebuild: the operations committed
// after the buckets last reached the medium.
//
// Buckets whose slots no longer read back (torn writes, bit rot) are
// skipped: the rebuilt trie serves every surviving record, but the file
// fails Check until Scrub quarantines the damaged slots.
func RecoverAt(dir string, opts Options) (*File, error) {
	o, err := opts.validated()
	if err != nil {
		return nil, err
	}
	if o.PageCapacity > 0 {
		return nil, fmt.Errorf("triehash: recovery of multilevel files is not supported (rebuild yields a single-level trie; open it without PageCapacity)")
	}
	fs, err := store.OpenFile(filepath.Join(dir, "buckets.th"))
	if err != nil {
		return nil, err
	}
	if opts.BucketCapacity == 0 {
		if h := fs.CapacityHint(); h > 0 {
			o.BucketCapacity = h
		} else if b := fullestBucket(fs); b > 0 {
			o.BucketCapacity = b
		}
	}
	return assemble(o, dir, fs, fromBuckets, func(st store.Store) (engine, error) {
		c, err := core.Recover(o.coreConfig(), st)
		if err == nil && fs.CapacityHint() == 0 {
			// Repair the missing redundancy while we are here (pre-hint file).
			_ = fs.SetCapacityHint(c.Config().Capacity)
		}
		return c, err
	})
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
	opts = Options{
		CacheFrames: opts.CacheFrames, Concurrent: opts.Concurrent, WAL: opts.WAL,
		CheckpointBytes: opts.CheckpointBytes, FormatVersion: opts.FormatVersion,
	}
	f, cause := reopen(dir, opts)
	if !errors.Is(cause, errNeedsSalvage) {
		return f, cause
	}
	f, err := RecoverAt(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("triehash: %s: metadata unusable (%v) and salvage failed: %w", dir, cause, err)
	}
	return f, nil
}

// errNeedsSalvage marks a file OpenAtWith must rebuild from its buckets:
// its metadata is missing or holds no file, or its log must replay over
// buckets the multilevel trie no longer matches (canonicalizing them needs
// Scrub, which multilevel files do not support).
var errNeedsSalvage = errors.New("triehash: salvage needed")

// reopen reattaches dir's metadata to its bucket file, failing with
// errNeedsSalvage when only a rebuild from the buckets can open it. A
// metadata version newer than this build is not damage: the bytes are
// intact and a future build owns them, so reopen refuses it rather than
// salvage, which would rebuild (and overwrite) a file this build cannot
// faithfully read.
func reopen(dir string, opts Options) (*File, error) {
	o, err := opts.validated()
	if err != nil {
		return nil, err
	}
	meta, err := os.ReadFile(filepath.Join(dir, "meta.th"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %v", errNeedsSalvage, err)
	}
	if err != nil {
		return nil, err
	}
	fs, err := store.OpenFile(filepath.Join(dir, "buckets.th"))
	if err != nil {
		return nil, err
	}
	return assemble(o, dir, fs, fromMeta, func(st store.Store) (engine, error) {
		var unknown *format.UnknownVersionError
		c, err := core.Open(meta, st)
		if err == nil {
			fs.ClaimReferenced(c.BucketAddrs())
			return c, nil
		}
		if errors.As(err, &unknown) {
			return nil, fmt.Errorf("triehash: open %s: %w", dir, err)
		}
		m, err := mlth.Open(meta, st)
		if err == nil {
			fs.ClaimReferenced(m.BucketAddrs())
			return m, nil
		}
		if errors.As(err, &unknown) {
			return nil, fmt.Errorf("triehash: open %s: %w", dir, err)
		}
		return nil, fmt.Errorf("%w: %s holds neither a single-level nor a multilevel file: %v", errNeedsSalvage, dir, err)
	})
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
		// the bucket pages and rewind it, with one batched directory sync
		// instead of one per metadata install.
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
// rewinds it. The order is load-bearing: buckets and metadata must be
// durable — directory sync included — before the log rewinds, because
// the new generation overwrites the only other copy of the logged
// operations. A crash at any interior point leaves either the old meta +
// the full log (replay covers everything) or the new meta + a
// longer-than-needed log (replay is idempotent), both of which converge
// on open.
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
