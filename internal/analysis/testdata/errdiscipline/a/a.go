// Package a replicates the store surface for the errdiscipline golden
// test: errors from Store I/O and encoding/binary must be handled or
// explicitly discarded with `_ =`.
package a

import (
	"bytes"
	"encoding/binary"
)

type Bucket struct{ n int }

type Store interface {
	Read(addr int32) (*Bucket, error)
	Lookup(addr int32, key string) ([]byte, bool, error)
	Write(addr int32, b *Bucket) error
	Sync() error
	Close() error
}

func drop(s Store, b *Bucket) {
	s.Read(7)        // want `error from s\.Read discarded`
	s.Lookup(7, "k") // want `error from s\.Lookup discarded`
	s.Write(7, b)    // want `error from s\.Write discarded`
	s.Close()        // want `error from s\.Close discarded`
}

func deferred(s Store) {
	defer s.Close() // want `error from s\.Close discarded by defer`
}

// explicit discards are the sanctioned escape hatch for cleanup paths
// where an earlier error takes precedence.
func explicit(s Store) {
	_ = s.Close()
}

// handled errors are the normal case.
func handled(s Store, b *Bucket) error {
	if err := s.Write(1, b); err != nil {
		return err
	}
	return s.Sync()
}

func encode(w *bytes.Buffer, v uint32) {
	binary.Write(w, binary.LittleEndian, v) // want `error from encoding/binary\.Write discarded`
}

func encodeHandled(w *bytes.Buffer, v uint32) error {
	return binary.Write(w, binary.LittleEndian, v)
}

type closer struct{}

func (closer) Close() error { return nil }

// Close on a non-store type is somebody else's policy; not flagged.
func other(c closer) {
	c.Close()
}

// Log and Device replicate the write-ahead log surface: the matcher keys
// on the type names, as it does for Store.
type Log struct{}

func (*Log) Append(op byte, key string, value []byte) (uint64, error) { return 0, nil }
func (*Log) Commit(lsn uint64) error                                  { return nil }
func (*Log) Checkpoint() error                                        { return nil }
func (*Log) Close() error                                             { return nil }

type Device interface {
	Append(p []byte, live int) error
	Sync() error
	Rewind(n int64) error
	TruncateTo(n int64) error
	Close() error
}

func dropWAL(l *Log, d Device) {
	l.Append(1, "k", nil) // want `error from l\.Append discarded.*non-durable`
	l.Commit(7)           // want `error from l\.Commit discarded.*non-durable`
	l.Checkpoint()        // want `error from l\.Checkpoint discarded.*non-durable`
	d.Sync()              // want `error from d\.Sync discarded.*non-durable`
	d.TruncateTo(0)       // want `error from d\.TruncateTo discarded.*non-durable`
	d.Rewind(0)           // want `error from d\.Rewind discarded.*non-durable`
}

func deferredWAL(l *Log) {
	defer l.Close() // want `error from l\.Close discarded by defer.*non-durable`
}

// The explicit discard stays the sanctioned escape hatch: attachment
// failure paths close the log with the original error taking precedence.
func explicitWAL(l *Log) {
	_ = l.Close()
}

func handledWAL(l *Log, d Device) error {
	lsn, err := l.Append(1, "k", nil)
	if err != nil {
		return err
	}
	if err := l.Commit(lsn); err != nil {
		return err
	}
	return d.Sync()
}

// DecodeBinary, DecodeBound and SearchPage replicate the codec surface:
// the matcher keys on the function names, whatever package they are
// called from.
func DecodeBinary(buf []byte) (*Bucket, int, error) { return nil, 0, nil }

func DecodeBound(buf []byte) ([]byte, int, error) { return nil, 0, nil }

func SearchPage(page []byte, key string) ([]byte, bool, int, error) { return nil, false, 0, nil }

func dropDecode(buf []byte) {
	DecodeBinary(buf)    // want `error from DecodeBinary discarded.*detected corruption`
	DecodeBound(buf)     // want `error from DecodeBound discarded.*detected corruption`
	SearchPage(buf, "k") // want `error from SearchPage discarded.*detected corruption`
}

func handledDecode(buf []byte) error {
	_, _, err := DecodeBinary(buf)
	return err
}

// A same-named method belongs to its receiver's policy, not the codec
// rule; not flagged.
type frame struct{}

func (frame) DecodeBinary() error { return nil }

func methodDecode(f frame) {
	_ = f.DecodeBinary()
}
