package store

import (
	"time"

	"triehash/internal/bucket"
	"triehash/internal/obs"
)

// Instrumented wraps a Store with per-operation latency recording into an
// obs.Hook's observer. It composes with the other wrappers (outermost in
// the stack, so cache hits and injected faults are timed too). With no
// observer attached each operation pays one atomic load and a branch —
// nothing else, and no allocation.
type Instrumented struct {
	Store
	viewer Viewer   // s's ReadView when it has one, resolved once
	search Searcher // s's Lookup when it has one, resolved once
	probe  Prober   // s's tagged reads when it has them, resolved once
	hook   *obs.Hook
}

// Prober is a store whose reads also report whether they were served from
// a resident pool frame (true) or had to reach the store (false).
// ShardedCache implements it; the Instrumented wrapper uses it to split
// span time between the cache-probe and store-read stages.
type Prober interface {
	ReadViewTagged(addr int32) (*bucket.Bucket, bool, error)
	LookupTagged(addr int32, key string) (value []byte, found, hit bool, err error)
}

// SpanReader is the span-aware read capability the engines use when an
// operation carries a span: ReadView and Lookup, charging the access to
// the span's cache-probe or store-read stage. A nil span degrades to the
// plain call. The Instrumented wrapper implements it.
type SpanReader interface {
	ReadViewSpan(addr int32, sp *obs.Span) (*bucket.Bucket, error)
	LookupSpan(addr int32, key string, sp *obs.Span) ([]byte, bool, error)
}

// Views is a store's read-only access path with its capabilities resolved
// once, for the engines' read operations: Get is the zero-allocation hot
// path, and a per-call interface assertion costs measurably there. The
// store must not change after NewViews.
type Views struct {
	st     Store
	viewer Viewer
	search Searcher
	span   SpanReader
}

// NewViews resolves st's ReadView, Lookup and span-aware read
// capabilities.
func NewViews(st Store) Views {
	v := Views{st: st}
	v.viewer, _ = st.(Viewer)
	v.search, _ = st.(Searcher)
	v.span, _ = st.(SpanReader)
	return v
}

// View reads bucket addr read-only through the cheapest path the store
// offers: ReadView (no clone) when the store has one, Read otherwise. With
// a span the store's span-aware reader, when it has one, splits the access
// into cache-probe vs store-read; otherwise the whole access is charged to
// store-read. The caller must not mutate the bucket.
func (v *Views) View(addr int32, sp *obs.Span) (*bucket.Bucket, error) {
	if sp != nil && v.span != nil {
		return v.span.ReadViewSpan(addr, sp)
	}
	b, err := readView(v.viewer, v.st, addr)
	sp.Mark(obs.StageStoreRead)
	return b, err
}

// Get looks key up in bucket addr: one bucket access, through the store's
// Lookup when it has one and View plus Bucket.Get otherwise. The stages
// are charged as View charges them, the bucket search included. The
// caller must not modify the value.
func (v *Views) Get(addr int32, key string, sp *obs.Span) ([]byte, bool, error) {
	if sp != nil && v.span != nil {
		return v.span.LookupSpan(addr, key, sp)
	}
	val, ok, err := lookup(v.search, v.viewer, v.st, addr, key)
	sp.Mark(obs.StageStoreRead)
	return val, ok, err
}

// readView is View's store access: st's ReadView (viewer) when it has one,
// Read otherwise.
func readView(viewer Viewer, st Store, addr int32) (*bucket.Bucket, error) {
	if viewer != nil {
		return viewer.ReadView(addr)
	}
	return st.Read(addr)
}

// lookup is Get's store access: st's Lookup (search) when it has one,
// readView and Bucket.Get otherwise.
func lookup(search Searcher, viewer Viewer, st Store, addr int32, key string) ([]byte, bool, error) {
	if search != nil {
		return search.Lookup(addr, key)
	}
	b, err := readView(viewer, st, addr)
	if err != nil {
		return nil, false, err
	}
	v, ok := b.Get(key)
	return v, ok, nil
}

// NewInstrumented wraps s; hook may be shared with other components.
func NewInstrumented(s Store, hook *obs.Hook) *Instrumented {
	i := &Instrumented{Store: s, hook: hook}
	i.viewer, _ = s.(Viewer)
	i.search, _ = s.(Searcher)
	i.probe, _ = s.(Prober)
	return i
}

// Unwrap returns the wrapped store.
func (s *Instrumented) Unwrap() Store { return s.Store }

// Read implements Store, timing the access when observed.
func (s *Instrumented) Read(addr int32) (*bucket.Bucket, error) {
	o := s.hook.Observer()
	if o == nil {
		return s.Store.Read(addr)
	}
	start := time.Now()
	b, err := s.Store.Read(addr)
	o.RecordOp(obs.OpRead, time.Since(start))
	return b, err
}

// ReadView implements Viewer, timing the access as a read. The view is
// served by the wrapped store's fast path when it has one (a cache hit
// skips the clone); wrapped stores without ReadView serve a plain Read,
// so the wrapper is always a Viewer without changing semantics. The
// inner Viewer is resolved at construction, not per call: this method
// sits on the zero-allocation Get hot path, where a repeated interface
// assertion is measurable.
func (s *Instrumented) ReadView(addr int32) (*bucket.Bucket, error) {
	o := s.hook.Observer()
	if o == nil {
		return readView(s.viewer, s.Store, addr)
	}
	start := time.Now()
	b, err := readView(s.viewer, s.Store, addr)
	o.RecordOp(obs.OpRead, time.Since(start))
	return b, err
}

// ReadViewSpan implements SpanReader: a span-carrying ReadView that
// charges the access to the span's cache-probe stage (pool hit) or
// store-read stage (the access reached the store), and still feeds the
// whole-access OpRead histogram. With a nil span it is exactly ReadView.
func (s *Instrumented) ReadViewSpan(addr int32, sp *obs.Span) (*bucket.Bucket, error) {
	if sp == nil {
		return s.ReadView(addr)
	}
	var (
		b     *bucket.Bucket
		hit   bool
		err   error
		stage = obs.StageStoreRead
	)
	if s.probe != nil {
		b, hit, err = s.probe.ReadViewTagged(addr)
		if hit {
			stage = obs.StageCacheProbe
		}
	} else {
		b, err = readView(s.viewer, s.Store, addr)
	}
	d := sp.Mark(stage)
	s.hook.Observer().RecordOp(obs.OpRead, d)
	return b, err
}

// Lookup implements Searcher, timing the access as a read. It is served
// by the wrapped store's Lookup when it has one and by ReadView plus
// Bucket.Get otherwise, so the wrapper is always a Searcher without
// changing which store and bucket code a lookup runs.
func (s *Instrumented) Lookup(addr int32, key string) ([]byte, bool, error) {
	o := s.hook.Observer()
	if o == nil {
		return lookup(s.search, s.viewer, s.Store, addr, key)
	}
	start := time.Now()
	v, ok, err := lookup(s.search, s.viewer, s.Store, addr, key)
	o.RecordOp(obs.OpRead, time.Since(start))
	return v, ok, err
}

// LookupSpan implements SpanReader: Lookup charging the access, bucket
// search included, to the span's cache-probe stage on a pool hit and to
// its store-read stage otherwise, as ReadViewSpan does. With a nil span it
// is exactly Lookup.
func (s *Instrumented) LookupSpan(addr int32, key string, sp *obs.Span) ([]byte, bool, error) {
	if sp == nil {
		return s.Lookup(addr, key)
	}
	var (
		v       []byte
		ok, hit bool
		err     error
		stage   = obs.StageStoreRead
	)
	if s.probe != nil {
		v, ok, hit, err = s.probe.LookupTagged(addr, key)
		if hit {
			stage = obs.StageCacheProbe
		}
	} else {
		v, ok, err = lookup(s.search, s.viewer, s.Store, addr, key)
	}
	d := sp.Mark(stage)
	s.hook.Observer().RecordOp(obs.OpRead, d)
	return v, ok, err
}

// Write implements Store, timing the access when observed.
func (s *Instrumented) Write(addr int32, b *bucket.Bucket) error {
	o := s.hook.Observer()
	if o == nil {
		return s.Store.Write(addr, b)
	}
	start := time.Now()
	err := s.Store.Write(addr, b)
	o.RecordOp(obs.OpWrite, time.Since(start))
	return err
}

// Alloc implements Store, timing the allocation when observed.
func (s *Instrumented) Alloc() (int32, error) {
	o := s.hook.Observer()
	if o == nil {
		return s.Store.Alloc()
	}
	start := time.Now()
	addr, err := s.Store.Alloc()
	o.RecordOp(obs.OpAlloc, time.Since(start))
	return addr, err
}

// Free implements Store, timing the release when observed.
func (s *Instrumented) Free(addr int32) error {
	o := s.hook.Observer()
	if o == nil {
		return s.Store.Free(addr)
	}
	start := time.Now()
	err := s.Store.Free(addr)
	o.RecordOp(obs.OpFree, time.Since(start))
	return err
}

// Unwrapper is implemented by store wrappers (Instrumented,
// ShardedCache, FaultStore) exposing the store they decorate.
type Unwrapper interface {
	Unwrap() Store
}

// Unwrap peels one wrapper layer off s, or returns nil when s is a base
// store.
func Unwrap(s Store) Store {
	if u, ok := s.(Unwrapper); ok {
		return u.Unwrap()
	}
	return nil
}

// AsSharded returns the first *ShardedCache in s's wrapper chain, or nil.
func AsSharded(s Store) *ShardedCache {
	for ; s != nil; s = Unwrap(s) {
		if c, ok := s.(*ShardedCache); ok {
			return c
		}
	}
	return nil
}

// AsFileStore returns the first *FileStore in s's wrapper chain, or nil.
func AsFileStore(s Store) *FileStore {
	for ; s != nil; s = Unwrap(s) {
		if f, ok := s.(*FileStore); ok {
			return f
		}
	}
	return nil
}
