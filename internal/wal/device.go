package wal

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Device is the byte medium a Log writes to. Appends go to the head, the
// end of the live log. A checkpoint rewinds the head to byte 0, and the
// next generation overwrites the last one in place, so past the head the
// medium may hold the end frame of the last append and a dead tail of
// older frames; Scan stops at the end frame and never reads them. The Log
// sees only this tiny surface; FileDevice and MemDevice implement it.
type Device interface {
	// Append writes p at the head in one write and moves the head past
	// its first live bytes. The rest of p is the end frame, which marks
	// the live end on the medium until the next append overwrites it. The
	// bytes are buffered: they survive a crash only after Sync.
	Append(p []byte, live int) error
	// Sync makes every appended byte durable (the fsync).
	Sync() error
	// Contents returns the whole medium, for replay: the live log and
	// whatever lies past it.
	Contents() ([]byte, error)
	// Rewind moves the head to offset n and keeps the bytes at and past
	// it, which the following appends overwrite (a checkpoint rewinds to
	// 0; an open resumes at the end of a clean scan).
	Rewind(n int64) error
	// TruncateTo discards every byte at or after offset n and moves the
	// head there (tail repair truncates to the last whole frame; a clean
	// close trims the medium to the live log).
	TruncateTo(n int64) error
	// Size returns the live length in bytes: the head's offset.
	Size() int64
	// Close releases the device.
	Close() error
}

// Medium is the file a FileDevice keeps the log in. *os.File satisfies
// it, and so does a store.CrashDisk's file, which is how the crash
// harness cuts the shipped device. Seek serves only the length query at
// open.
type Medium interface {
	io.ReaderAt
	io.WriterAt
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FileDevice is the production Device: one file, recycled in place.
type FileDevice struct {
	mu sync.Mutex
	f  Medium
	// head is the live length, where the next append goes; length is the
	// medium's, which past the head holds the end frame and any dead
	// tail of an older generation.
	head, length int64
}

// OpenFileDevice opens (creating if absent) the log file at path.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	d, err := OpenMediumDevice(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// OpenMediumDevice returns the device over a log medium, with the head at
// the medium's end until the opener rewinds it.
func OpenMediumDevice(m Medium) (*FileDevice, error) {
	size, err := m.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	return &FileDevice{f: m, head: size, length: size}, nil
}

// Append implements Device.
func (d *FileDevice) Append(p []byte, live int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := d.f.WriteAt(p, d.head)
	d.length = max(d.length, d.head+int64(n))
	if err != nil {
		return err
	}
	d.head += int64(live)
	return nil
}

// Sync implements Device.
func (d *FileDevice) Sync() error { return d.f.Sync() }

// Contents implements Device.
func (d *FileDevice) Contents() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	buf := make([]byte, d.length)
	n, err := d.f.ReadAt(buf, 0)
	if int64(n) != d.length {
		return nil, fmt.Errorf("wal: short log read: %d of %d bytes: %v", n, d.length, err)
	}
	return buf, nil
}

// Rewind implements Device. It issues no I/O.
func (d *FileDevice) Rewind(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 || n > d.length {
		return fmt.Errorf("wal: rewind to %d outside log of %d bytes", n, d.length)
	}
	d.head = n
	return nil
}

// TruncateTo implements Device.
func (d *FileDevice) TruncateTo(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.f.Truncate(n); err != nil {
		return err
	}
	d.head, d.length = n, n
	return nil
}

// Size implements Device.
func (d *FileDevice) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.head
}

// Close implements Device.
func (d *FileDevice) Close() error { return d.f.Close() }

// MemDevice is an in-memory Device for tests and memory-backed files. It
// keeps only the live log: Rewind truncates, so nothing lies past the
// head for an end frame to mark, and Append drops it.
type MemDevice struct {
	mu  sync.Mutex
	buf []byte
}

// NewMem returns an empty in-memory log device.
func NewMem() *MemDevice { return &MemDevice{} }

// Append implements Device.
func (d *MemDevice) Append(p []byte, live int) error {
	d.mu.Lock()
	d.buf = append(d.buf, p[:live]...)
	d.mu.Unlock()
	return nil
}

// Sync implements Device.
func (d *MemDevice) Sync() error { return nil }

// Contents implements Device.
func (d *MemDevice) Contents() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.buf...), nil
}

// Rewind implements Device.
func (d *MemDevice) Rewind(n int64) error { return d.TruncateTo(n) }

// TruncateTo implements Device.
func (d *MemDevice) TruncateTo(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 || n > int64(len(d.buf)) {
		return fmt.Errorf("wal: truncate to %d outside log of %d bytes", n, len(d.buf))
	}
	d.buf = d.buf[:n]
	return nil
}

// Size implements Device.
func (d *MemDevice) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.buf))
}

// Close implements Device.
func (d *MemDevice) Close() error { return nil }
