package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"triehash/internal/bucket"
	"triehash/internal/format"
)

// FileStore persists buckets in a single file of fixed-size slots, one per
// bucket address. Each slot carries a checksummed header, so torn or
// corrupted slots are detected at read time and surface as CorruptError.
// The layout mirrors the paper's disk model: one slot transfer per bucket
// access.
//
// Layout:
//
//	file header (32 bytes): magic, version, slot size, capacity hint
//	slot k at offset 32 + k*slotSize:
//	    flags (1), payload length (4), crc32 of payload (4), payload
//
// The capacity hint records the file's bucket capacity b redundantly, so
// salvage (OpenAt's fallback reconstruction) can rebuild a file whose
// metadata is lost without being told b. Zero (files written before the
// hint existed) means "unknown"; the salvage path then infers b from the
// fullest surviving bucket.
// FileStore is safe for concurrent use: reads and writes of distinct
// slots are independent positioned I/O, the slot count is atomic, and the
// allocator bookkeeping (free list, live count) is mutex-guarded.
// Concurrent operations on the *same* slot need external coordination
// (the engine's per-bucket latches) — the store does not order them.
type FileStore struct {
	f        Medium
	slotSize int
	hint     int          // capacity hint from the header; 0 = unknown
	slots    atomic.Int32 // slots present in the file (allocated + freed)
	mu       sync.Mutex   // guards free and live
	free     []int32
	live     int
	ctr      counterSet
	// fmtv is the page encoding version writes use (reads accept either);
	// 0 means format.Default. Set before the store is shared.
	fmtv format.Version
}

const (
	fileMagic      = 0x54484653 // "THFS"
	fileVersion    = 1
	fileHeaderSize = 32
	slotHeaderSize = 9
	slotLive       = 1
	slotFree       = 0
)

// Medium is the file a FileStore keeps its slots in. *os.File satisfies
// it, and so does a CrashDisk's file, which is how the crash harness cuts
// the shipped store. Seek serves only the length query at open.
type Medium interface {
	io.ReaderAt
	io.WriterAt
	io.Seeker
	Sync() error
	Close() error
}

// CreateFile creates (truncating) a bucket file at path whose slots hold
// serialized buckets of up to slotSize-9 bytes.
func CreateFile(path string, slotSize int) (*FileStore, error) {
	// Checked before the open truncates: a bad size leaves the file alone.
	if slotSize <= slotHeaderSize+4 {
		return nil, fmt.Errorf("store: slot size %d too small", slotSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	s, err := CreateMedium(f, slotSize)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// CreateMedium formats an empty medium as a bucket file whose slots hold
// serialized buckets of up to slotSize-9 bytes.
func CreateMedium(m Medium, slotSize int) (*FileStore, error) {
	if slotSize <= slotHeaderSize+4 {
		return nil, fmt.Errorf("store: slot size %d too small", slotSize)
	}
	var hdr [fileHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], fileVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(slotSize))
	if _, err := m.WriteAt(hdr[:], 0); err != nil {
		return nil, err
	}
	return &FileStore{f: m, slotSize: slotSize}, nil
}

// OpenFile opens an existing bucket file, rebuilding the free list by
// scanning slot headers.
func OpenFile(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	s, err := OpenMedium(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// OpenMedium opens the bucket file a medium holds, rebuilding the free
// list by scanning slot headers.
func OpenMedium(m Medium) (*FileStore, error) {
	var hdr [fileHeaderSize]byte
	if _, err := m.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("store: reading file header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != fileMagic {
		return nil, errors.New("store: not a bucket file")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != fileVersion {
		return nil, fmt.Errorf("store: unsupported version %d", v)
	}
	s := &FileStore{
		f:        m,
		slotSize: int(binary.LittleEndian.Uint32(hdr[8:])),
		hint:     int(binary.LittleEndian.Uint32(hdr[12:])),
	}
	if s.slotSize <= slotHeaderSize+4 {
		return nil, fmt.Errorf("store: corrupt slot size %d in file header", s.slotSize)
	}
	size, err := m.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	s.slots.Store(int32((size - fileHeaderSize) / int64(s.slotSize)))
	for k := int32(0); k < s.slots.Load(); k++ {
		var sh [slotHeaderSize]byte
		if _, err := m.ReadAt(sh[:], s.offset(k)); err != nil {
			return nil, fmt.Errorf("store: scanning slot %d: %w", k, err)
		}
		if sh[0] == slotLive {
			s.live++
		} else {
			s.free = append(s.free, k)
		}
	}
	return s, nil
}

func (s *FileStore) offset(addr int32) int64 {
	return fileHeaderSize + int64(addr)*int64(s.slotSize)
}

// SlotSize returns the configured slot size.
func (s *FileStore) SlotSize() int { return s.slotSize }

// PayloadSize returns the bytes of each slot available to a bucket's
// encoding — the byte budget persistent engines gate writes on.
func (s *FileStore) PayloadSize() int { return s.slotSize - slotHeaderSize }

// SetFormat selects the page encoding version Write and Alloc use; reads
// accept either version regardless. Call before the store is shared.
func (s *FileStore) SetFormat(v format.Version) {
	if v.Valid() {
		s.fmtv = v
	}
}

// Format returns the page encoding version writes use.
func (s *FileStore) Format() format.Version {
	if s.fmtv == 0 {
		return format.Default
	}
	return s.fmtv
}

// CapacityHint returns the bucket capacity recorded in the file header, or
// 0 when the file predates the hint.
func (s *FileStore) CapacityHint() int { return s.hint }

// SetCapacityHint records the bucket capacity b in the file header — the
// redundancy that lets salvage rebuild the file without its metadata.
func (s *FileStore) SetCapacityHint(b int) error {
	if b < 0 {
		return fmt.Errorf("store: negative capacity hint %d", b)
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(b))
	if _, err := s.f.WriteAt(buf[:], 12); err != nil {
		return err
	}
	s.hint = b
	return nil
}

func (s *FileStore) readSlot(addr int32) (flags byte, payload []byte, err error) {
	if n := s.slots.Load(); addr < 0 || addr >= n {
		return 0, nil, fmt.Errorf("%w: slot %d of %d", ErrNotAllocated, addr, n)
	}
	buf := make([]byte, s.slotSize)
	if _, err := s.f.ReadAt(buf, s.offset(addr)); err != nil {
		return 0, nil, fmt.Errorf("store: slot %d: %w", addr, err)
	}
	flags = buf[0]
	if flags != slotLive && flags != slotFree {
		return 0, nil, &CorruptError{Addr: addr, Reason: fmt.Sprintf("invalid slot flags 0x%02x", flags)}
	}
	n := int(binary.LittleEndian.Uint32(buf[1:]))
	if n > s.slotSize-slotHeaderSize {
		return 0, nil, &CorruptError{Addr: addr, Reason: fmt.Sprintf("corrupt length %d", n)}
	}
	sum := binary.LittleEndian.Uint32(buf[5:])
	payload = buf[slotHeaderSize : slotHeaderSize+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, &CorruptError{Addr: addr, Reason: "checksum mismatch"}
	}
	return flags, payload, nil
}

func (s *FileStore) writeSlot(addr int32, flags byte, payload []byte) error {
	if len(payload) > s.slotSize-slotHeaderSize {
		return fmt.Errorf("store: bucket of %d bytes exceeds slot payload %d", len(payload), s.slotSize-slotHeaderSize)
	}
	buf := make([]byte, s.slotSize)
	buf[0] = flags
	binary.LittleEndian.PutUint32(buf[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[5:], crc32.ChecksumIEEE(payload))
	copy(buf[slotHeaderSize:], payload)
	_, err := s.f.WriteAt(buf, s.offset(addr))
	return err
}

// Read implements Store.
func (s *FileStore) Read(addr int32) (*bucket.Bucket, error) {
	flags, payload, err := s.readSlot(addr)
	if err != nil {
		return nil, err
	}
	if flags != slotLive {
		return nil, fmt.Errorf("%w: read of freed slot %d", ErrNotAllocated, addr)
	}
	s.ctr.reads.Add(1)
	b, _, err := bucket.DecodeBinary(payload)
	if err != nil {
		// A future build's page is intact, not corrupt: surface the version
		// refusal as-is so callers never try to repair it.
		var uve *format.UnknownVersionError
		if errors.As(err, &uve) {
			return nil, err
		}
		return nil, &CorruptError{Addr: addr, Reason: fmt.Sprintf("payload decode: %v", err)}
	}
	format.RecordPageRead(b.DecodedFormat())
	return b, nil
}

// Write implements Store.
func (s *FileStore) Write(addr int32, b *bucket.Bucket) error {
	flags, _, err := s.readSlot(addr)
	if err != nil {
		return err
	}
	if flags != slotLive {
		return fmt.Errorf("%w: write of freed slot %d", ErrNotAllocated, addr)
	}
	s.ctr.writes.Add(1)
	v := s.Format()
	payload := b.AppendFormat(nil, v)
	format.RecordPageWrite(v, len(payload), b.Bytes())
	return s.writeSlot(addr, slotLive, payload)
}

// Alloc implements Store.
func (s *FileStore) Alloc() (int32, error) {
	s.ctr.allocs.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	var addr int32
	n := len(s.free)
	if n > 0 {
		addr = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		addr = s.slots.Load()
		s.slots.Store(addr + 1)
	}
	if err := s.writeSlot(addr, slotLive, bucket.New(0).AppendFormat(nil, s.Format())); err != nil {
		// Give the address back, or it is neither live nor free until
		// the next open.
		if n > 0 {
			s.free = append(s.free, addr)
		} else {
			s.slots.Store(addr)
		}
		return 0, err
	}
	s.live++
	return addr, nil
}

// Free implements Store.
func (s *FileStore) Free(addr int32) error {
	flags, _, err := s.readSlot(addr)
	if err != nil {
		return err
	}
	if flags != slotLive {
		return fmt.Errorf("%w: double free of slot %d", ErrNotAllocated, addr)
	}
	if err := s.writeSlot(addr, slotFree, nil); err != nil {
		return err
	}
	s.ctr.frees.Add(1)
	s.mu.Lock()
	s.live--
	s.free = append(s.free, addr)
	s.mu.Unlock()
	return nil
}

// ReadRaw implements RawReader: the slot's bytes exactly as stored, no
// checksum verification — what Scrub preserves in the quarantine file.
func (s *FileStore) ReadRaw(addr int32) ([]byte, error) {
	if n := s.slots.Load(); addr < 0 || addr >= n {
		return nil, fmt.Errorf("%w: raw read of slot %d of %d", ErrNotAllocated, addr, n)
	}
	buf := make([]byte, s.slotSize)
	if _, err := s.f.ReadAt(buf, s.offset(addr)); err != nil {
		return nil, fmt.Errorf("store: slot %d: %w", addr, err)
	}
	return buf, nil
}

// inFree reports whether addr is already on the free list.
func (s *FileStore) inFree(addr int32) bool {
	for _, a := range s.free {
		if a == addr {
			return true
		}
	}
	return false
}

// ClearSlot implements SlotClearer: the slot is marked free regardless of
// its content. Free refuses a slot that no longer reads back; this is the
// release path for quarantined slots (their bytes already preserved).
func (s *FileStore) ClearSlot(addr int32) error {
	if n := s.slots.Load(); addr < 0 || addr >= n {
		return fmt.Errorf("%w: clear of slot %d of %d", ErrNotAllocated, addr, n)
	}
	if err := s.writeSlot(addr, slotFree, nil); err != nil {
		return err
	}
	// Bookkeeping follows the in-memory classification (live iff not on
	// the free list), which OpenFile derived from the flags and which
	// stays self-consistent even when the on-disk flags were damaged.
	s.mu.Lock()
	if !s.inFree(addr) {
		s.live--
		s.free = append(s.free, addr)
	}
	s.mu.Unlock()
	return nil
}

// CorruptSlot implements Corrupter: it damages addr in place, simulating
// the dirty failure modes a power cut or decaying medium produces. The
// damaged offset and bit derive deterministically from seed, so crash
// tests replay exactly. Allocator bookkeeping is intentionally left
// untouched — the corruption is silent until a read or reopen finds it,
// which is the scenario under test.
func (s *FileStore) CorruptSlot(addr int32, kind CorruptKind, seed int64) error {
	if n := s.slots.Load(); addr < 0 || addr >= n {
		return fmt.Errorf("%w: corrupt of slot %d of %d", ErrNotAllocated, addr, n)
	}
	buf := make([]byte, s.slotSize)
	if _, err := s.f.ReadAt(buf, s.offset(addr)); err != nil {
		return fmt.Errorf("store: slot %d: %w", addr, err)
	}
	if err := damageFrame(buf, kind, corruptMix(seed, addr)); err != nil {
		return err
	}
	_, err := s.f.WriteAt(buf, s.offset(addr))
	return err
}

// Buckets implements Store.
func (s *FileStore) Buckets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// MaxAddr implements Store.
func (s *FileStore) MaxAddr() int32 { return s.slots.Load() }

// Counters implements Store.
func (s *FileStore) Counters() Counters { return s.ctr.snapshot() }

// ResetCounters implements Store.
func (s *FileStore) ResetCounters() { s.ctr.reset() }

// Sync flushes the file to stable storage.
func (s *FileStore) Sync() error { return s.f.Sync() }

// Close implements Store.
func (s *FileStore) Close() error {
	if err := s.f.Sync(); err != nil {
		_ = s.f.Close() // the sync error is the one to report
		return err
	}
	return s.f.Close()
}
