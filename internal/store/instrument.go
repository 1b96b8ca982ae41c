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
	viewer Viewer       // s's ReadView when it has one, resolved once
	probe  TaggedViewer // s's ReadViewTagged when it has one, resolved once
	hook   *obs.Hook
}

// TaggedViewer is a Viewer that also reports whether the view was served
// from a resident pool frame (true) or had to reach the store (false).
// ShardedCache implements it; the Instrumented wrapper uses it to split
// span time between the cache-probe and store-read stages.
type TaggedViewer interface {
	ReadViewTagged(addr int32) (*bucket.Bucket, bool, error)
}

// SpanViewer is the span-aware read-view capability the engines use when
// an operation carries a span: like Viewer's ReadView, but charging the
// access to the span's cache-probe or store-read stage. A nil span
// degrades to a plain ReadView. The Instrumented wrapper implements it.
type SpanViewer interface {
	ReadViewSpan(addr int32, sp *obs.Span) (*bucket.Bucket, error)
}

// Views is a store's read-only access path with its capabilities resolved
// once, for the engines' read operations: Get is the zero-allocation hot
// path, and a per-call interface assertion costs measurably there. The
// store must not change after NewViews.
type Views struct {
	st     Store
	viewer Viewer
	span   SpanViewer
}

// NewViews resolves st's ReadView and span-aware ReadView capabilities.
func NewViews(st Store) Views {
	v := Views{st: st}
	v.viewer, _ = st.(Viewer)
	v.span, _ = st.(SpanViewer)
	return v
}

// View reads bucket addr read-only through the cheapest path the store
// offers: ReadView (no clone) when the store has one, Read otherwise. With
// a span the store's span-aware viewer, when it has one, splits the access
// into cache-probe vs store-read; otherwise the whole access is charged to
// store-read. The caller must not mutate the bucket.
func (v *Views) View(addr int32, sp *obs.Span) (b *bucket.Bucket, err error) {
	switch {
	case sp != nil && v.span != nil:
		return v.span.ReadViewSpan(addr, sp)
	case v.viewer != nil:
		b, err = v.viewer.ReadView(addr)
	default:
		b, err = v.st.Read(addr)
	}
	sp.Mark(obs.StageStoreRead)
	return b, err
}

// NewInstrumented wraps s; hook may be shared with other components.
func NewInstrumented(s Store, hook *obs.Hook) *Instrumented {
	i := &Instrumented{Store: s, hook: hook}
	i.viewer, _ = s.(Viewer)
	i.probe, _ = s.(TaggedViewer)
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
		if s.viewer != nil {
			return s.viewer.ReadView(addr)
		}
		return s.Store.Read(addr)
	}
	start := time.Now()
	var b *bucket.Bucket
	var err error
	if s.viewer != nil {
		b, err = s.viewer.ReadView(addr)
	} else {
		b, err = s.Store.Read(addr)
	}
	o.RecordOp(obs.OpRead, time.Since(start))
	return b, err
}

// ReadViewSpan implements SpanViewer: a span-carrying ReadView that
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
	switch {
	case s.probe != nil:
		b, hit, err = s.probe.ReadViewTagged(addr)
		if hit {
			stage = obs.StageCacheProbe
		}
	case s.viewer != nil:
		b, err = s.viewer.ReadView(addr)
	default:
		b, err = s.Store.Read(addr)
	}
	d := sp.Mark(stage)
	s.hook.Observer().RecordOp(obs.OpRead, d)
	return b, err
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
