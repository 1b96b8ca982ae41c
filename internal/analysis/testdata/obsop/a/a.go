// Package a replicates the public API shape for the obsop golden test:
// methods dispatching engine operations through the `eng` field must call
// the obs timing hook (RecordOp or FinishSpan), and a function that starts
// a span must defer its FinishSpan.
package a

import "time"

type Observer struct{}

type Span struct{}

func (o *Observer) RecordOp(op int, d time.Duration) {}
func (o *Observer) StartSpan(op int) *Span           { return nil }
func (o *Observer) FinishSpan(sp *Span)              {}
func (sp *Span) Mark(stage int)                      {}

// engine has one method per operation, each carrying the operation's span
// (nil when spans are off).
type engine interface {
	GetOp(key string, sp *Span) ([]byte, error)
	PutOp(key string, value []byte, sp *Span) (bool, error)
	DeleteOp(key string, sp *Span) error
	Len() int
}

type File struct {
	eng engine
	obs *Observer
}

// Get is the one-path shape: a span when spans are on, else a histogram
// clock whose conditional RecordOp still counts as routed. Nothing is
// flagged.
func (f *File) Get(key string) ([]byte, error) {
	sp := f.obs.StartSpan(0)
	defer f.obs.FinishSpan(sp)
	start := time.Now()
	v, err := f.eng.GetOp(key, sp)
	if sp == nil {
		f.obs.RecordOp(0, time.Since(start))
	}
	return v, err
}

// Put dispatches without any hook: flagged (rule 1).
func (f *File) Put(key string, value []byte) error {
	_, err := f.eng.PutOp(key, value, nil) // want `Put dispatches eng\.PutOp without the obs timing hook`
	return err
}

// PutLeaky starts a span but finishes it inline: an early return (or a
// panic) would leak the span and lose the op's samples (rule 2).
func (f *File) PutLeaky(key string, value []byte) error {
	sp := f.obs.StartSpan(1) // want `PutLeaky starts a span without a deferred FinishSpan`
	_, err := f.eng.PutOp(key, value, sp)
	f.obs.FinishSpan(sp)
	return err
}

// Delete routes through RecordOp alone: a histogram-only caller.
func (f *File) Delete(key string) error {
	start := time.Now()
	err := f.eng.DeleteOp(key, nil)
	f.obs.RecordOp(2, time.Since(start))
	return err
}

// Len is not an instrumented operation; no hook required.
func (f *File) Len() int { return f.eng.Len() }

// helper calls the engine through a non-eng field shape: not the public
// dispatch, not flagged.
func helper(e engine, key string) ([]byte, error) { return e.GetOp(key, nil) }
