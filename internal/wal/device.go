package wal

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Device is the byte medium a Log writes to: append-only except for
// checkpoint truncation. The Log sees only this tiny surface; FileDevice
// and MemDevice implement it.
type Device interface {
	// Append writes p at the current end of the log. The bytes are
	// buffered: they survive a crash only after Sync.
	Append(p []byte) error
	// Sync makes every appended byte durable (the fsync).
	Sync() error
	// Contents returns the full log image, for replay.
	Contents() ([]byte, error)
	// TruncateTo discards every byte at or after offset n (tail repair
	// truncates to the last whole frame; a checkpoint truncates to 0).
	TruncateTo(n int64) error
	// Size returns the current log length in bytes.
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

// FileDevice is the production Device: one append-only file.
type FileDevice struct {
	mu   sync.Mutex
	f    Medium
	size int64
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

// OpenMediumDevice returns the device over a log medium; appends go to
// its current end.
func OpenMediumDevice(m Medium) (*FileDevice, error) {
	size, err := m.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	return &FileDevice{f: m, size: size}, nil
}

// Append implements Device.
func (d *FileDevice) Append(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := d.f.WriteAt(p, d.size)
	d.size += int64(n)
	return err
}

// Sync implements Device.
func (d *FileDevice) Sync() error { return d.f.Sync() }

// Contents implements Device.
func (d *FileDevice) Contents() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	buf := make([]byte, d.size)
	n, err := d.f.ReadAt(buf, 0)
	if int64(n) != d.size {
		return nil, fmt.Errorf("wal: short log read: %d of %d bytes: %v", n, d.size, err)
	}
	return buf, nil
}

// TruncateTo implements Device.
func (d *FileDevice) TruncateTo(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.f.Truncate(n); err != nil {
		return err
	}
	d.size = n
	return nil
}

// Size implements Device.
func (d *FileDevice) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}

// Close implements Device.
func (d *FileDevice) Close() error { return d.f.Close() }

// MemDevice is an in-memory Device for tests and memory-backed files.
type MemDevice struct {
	mu  sync.Mutex
	buf []byte
}

// NewMem returns an empty in-memory log device.
func NewMem() *MemDevice { return &MemDevice{} }

// Append implements Device.
func (d *MemDevice) Append(p []byte) error {
	d.mu.Lock()
	d.buf = append(d.buf, p...)
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
