package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
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
//
// Every transfer is one positioned read or write of a whole slot frame
// (header and page) in a pooled slot-sized buffer. The store keeps each
// slot's state in memory — live, free or damaged — filled by the header
// scan at open, so Write and Free check it instead of reading the slot
// back. A slot is damaged when its flag byte was neither live nor free at
// open, when the file's metadata references it but the scan did not find
// it live (ClaimReferenced), or when a Read or Lookup of it failed with
// ErrCorrupt.
// Write and Free refuse a damaged slot with ErrCorrupt, Alloc never
// returns it, and ClearSlot is the only way out — MemStore's rule.
//
// FileStore is safe for concurrent use: reads and writes of distinct
// slots are independent positioned I/O, the slot count is atomic, and the
// allocator bookkeeping (slot states, write counts, free list, live
// count) is mutex-guarded, never across I/O. A read of a slot that
// overlaps a write of it sees the whole old page or the whole new one, as
// a MemStore reader does: a pread is not atomic against a pwrite, so a
// read that fails its checks reads again between two looks at the slot's
// write count, and only a failure no write overlapped damages the slot.
// Concurrent writes of the *same* slot need external coordination (the
// engine's per-bucket latches) — the store does not order them.
type FileStore struct {
	f        Medium
	slotSize int
	hint     int          // capacity hint from the header; 0 = unknown
	slots    atomic.Int32 // slots present in the file (allocated + freed)
	mu       sync.Mutex   // guards state, writes, free and live; never held across I/O
	state    []slotState  // per slot, indexed by address
	// writes counts, per slot, the frame writes begun plus those ended:
	// odd while one is in flight.
	writes []uint32
	free   []int32 // the free slots; Alloc takes the last
	live   int
	frames sync.Pool // *[]byte slot frames
	ctr    counterSet
	// fmtv is the page encoding version writes use (reads accept either);
	// 0 means format.Default. Set before the store is shared.
	fmtv format.Version
}

// slotState is what a FileStore knows about a slot without reading it.
type slotState uint8

const (
	stateFree slotState = iota
	stateLive
	stateDamaged
)

// emptyBucket is the page Alloc writes into a fresh slot; never mutated.
var emptyBucket = bucket.New(0)

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

// OpenMedium opens the bucket file a medium holds, rebuilding the slot
// states and the free list by scanning slot headers. A slot whose flag
// byte is neither live nor free is damaged: it is not reused until
// ClearSlot releases it.
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
	n := int32((size - fileHeaderSize) / int64(s.slotSize))
	s.state = make([]slotState, n)
	s.writes = make([]uint32, n)
	for k := int32(0); k < n; k++ {
		var sh [slotHeaderSize]byte
		if _, err := m.ReadAt(sh[:], s.offset(k)); err != nil {
			return nil, fmt.Errorf("store: scanning slot %d: %w", k, err)
		}
		switch sh[0] {
		case slotLive:
			s.state[k] = stateLive
			s.live++
		case slotFree:
			s.free = append(s.free, k)
		default:
			s.state[k] = stateDamaged
		}
	}
	s.slots.Store(n)
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

// frame returns a pooled slot-sized buffer; give it back to s.frames once
// nothing aliases it.
func (s *FileStore) frame() *[]byte {
	if fp, ok := s.frames.Get().(*[]byte); ok {
		return fp
	}
	buf := make([]byte, s.slotSize)
	return &buf
}

// readFrame reads slot addr into frame with one positioned read and
// returns its verified payload, which aliases frame, counting one read. A
// read whose flags, length or checksum fail may have been torn by a write
// of the slot, so it is repeated between two looks at the slot's write
// count; a failure that no write overlapped marks the slot damaged.
func (s *FileStore) readFrame(addr int32, frame []byte) ([]byte, error) {
	if n := s.slots.Load(); addr < 0 || addr >= n {
		return nil, fmt.Errorf("%w: slot %d of %d", ErrNotAllocated, addr, n)
	}
	payload, reason, err := s.readSlot(addr, frame)
	for reason != "" {
		before := s.writeCount(addr)
		payload, reason, err = s.readSlot(addr, frame)
		if reason != "" && before%2 == 0 && s.writeCount(addr) == before {
			return nil, s.corrupt(addr, reason)
		}
	}
	if err != nil {
		return nil, err
	}
	if frame[0] != slotLive {
		return nil, fmt.Errorf("%w: read of freed slot %d", ErrNotAllocated, addr)
	}
	s.ctr.reads.Add(1)
	return payload, nil
}

// readSlot reads slot addr into frame with one positioned read and checks
// its flags, length and checksum. It returns the payload, which aliases
// frame, or the reason the checks failed, or the read's error.
func (s *FileStore) readSlot(addr int32, frame []byte) (payload []byte, reason string, err error) {
	if _, err := s.f.ReadAt(frame, s.offset(addr)); err != nil {
		return nil, "", fmt.Errorf("store: slot %d: %w", addr, err)
	}
	if flags := frame[0]; flags != slotLive && flags != slotFree {
		return nil, fmt.Sprintf("invalid slot flags 0x%02x", flags), nil
	}
	n := int(binary.LittleEndian.Uint32(frame[1:]))
	if n > s.slotSize-slotHeaderSize {
		return nil, fmt.Sprintf("corrupt length %d", n), nil
	}
	payload = frame[slotHeaderSize : slotHeaderSize+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[5:]) {
		return nil, "checksum mismatch", nil
	}
	return payload, "", nil
}

// writeCount returns slot addr's write count (see FileStore.writes).
func (s *FileStore) writeCount(addr int32) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(addr) >= len(s.writes) {
		return 0
	}
	return s.writes[addr]
}

// countWrite steps slot addr's write count, once before its frame write
// and once after.
func (s *FileStore) countWrite(addr int32) {
	s.mu.Lock()
	s.writes[addr]++
	s.mu.Unlock()
}

// writeFrame writes slot addr with one positioned write: b's page (none
// when b is nil) is encoded at version v straight into a pooled frame
// after the header, the header gets the flags, length and checksum, and
// the tail past the page is zeroed so no stale bytes reach the slot. It
// returns the page length.
func (s *FileStore) writeFrame(addr int32, flags byte, b *bucket.Bucket, v format.Version) (int, error) {
	fp := s.frame()
	defer s.frames.Put(fp)
	frame := *fp
	page := frame[:slotHeaderSize]
	if b != nil {
		page = b.AppendFormat(page, v)
	}
	n := len(page) - slotHeaderSize
	if len(page) > len(frame) {
		return n, fmt.Errorf("store: bucket of %d bytes exceeds slot payload %d", n, len(frame)-slotHeaderSize)
	}
	frame[0] = flags
	binary.LittleEndian.PutUint32(frame[1:], uint32(n))
	binary.LittleEndian.PutUint32(frame[5:], crc32.ChecksumIEEE(frame[slotHeaderSize:slotHeaderSize+n]))
	clear(frame[slotHeaderSize+n:])
	s.countWrite(addr)
	_, err := s.f.WriteAt(frame, s.offset(addr))
	s.countWrite(addr)
	return n, err
}

// checkLive returns nil when addr is live, and otherwise the error a
// write or free of it (op) fails with.
func (s *FileStore) checkLive(addr int32, op string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if addr < 0 || int(addr) >= len(s.state) {
		return fmt.Errorf("%w: %s of slot %d of %d", ErrNotAllocated, op, addr, len(s.state))
	}
	switch s.state[addr] {
	case stateLive:
		return nil
	case stateDamaged:
		return &CorruptError{Addr: addr, Reason: op + " refused: slot is damaged until cleared"}
	}
	return fmt.Errorf("%w: %s of freed slot %d", ErrNotAllocated, op, addr)
}

// corrupt marks live slot addr damaged once a read found it corrupt, and
// returns the error that read reports.
func (s *FileStore) corrupt(addr int32, reason string) error {
	s.mu.Lock()
	if int(addr) < len(s.state) && s.state[addr] == stateLive {
		s.state[addr] = stateDamaged
		s.live--
	}
	s.mu.Unlock()
	return &CorruptError{Addr: addr, Reason: reason}
}

// Read implements Store: one positioned read into a pooled frame, then
// the decode, which copies every byte out of the frame.
func (s *FileStore) Read(addr int32) (*bucket.Bucket, error) {
	fp := s.frame()
	defer s.frames.Put(fp)
	payload, err := s.readFrame(addr, *fp)
	if err != nil {
		return nil, err
	}
	b, _, err := bucket.DecodeBinary(payload)
	if err != nil {
		return nil, s.pageErr(addr, err)
	}
	format.RecordPageRead(b.DecodedFormat())
	return b, nil
}

// Lookup implements Searcher: Read's one positioned read and checks, then
// a search of the page in the frame, which copies out only the value it
// finds. It counts one read, as Read does, and fails and damages the slot
// wherever Read would.
func (s *FileStore) Lookup(addr int32, key string) ([]byte, bool, error) {
	fp := s.frame()
	defer s.frames.Put(fp)
	payload, err := s.readFrame(addr, *fp)
	if err != nil {
		return nil, false, err
	}
	v, ok, ver, err := bucket.SearchPage(payload, key)
	if err != nil {
		return nil, false, s.pageErr(addr, err)
	}
	format.RecordPageRead(ver)
	// The frame goes back to the pool on return: the value must not
	// alias it.
	return bytes.Clone(v), ok, nil
}

// pageErr is the error a read of slot addr reports when its verified
// payload does not decode. A future build's page is intact, not corrupt:
// the version refusal surfaces as-is, so callers never try to repair it.
// Anything else damages the slot.
func (s *FileStore) pageErr(addr int32, err error) error {
	var uve *format.UnknownVersionError
	if errors.As(err, &uve) {
		return err
	}
	return s.corrupt(addr, fmt.Sprintf("payload decode: %v", err))
}

// Write implements Store: the in-memory state check, then one positioned
// write. A slot the medium damaged that no Read has seen since is
// overwritten.
func (s *FileStore) Write(addr int32, b *bucket.Bucket) error {
	if err := s.checkLive(addr, "write"); err != nil {
		return err
	}
	s.ctr.writes.Add(1)
	v := s.Format()
	n, err := s.writeFrame(addr, slotLive, b, v)
	if err != nil {
		return err
	}
	format.RecordPageWrite(v, n, b.Bytes())
	return nil
}

// Alloc implements Store. The address is taken under the lock and written
// outside it.
func (s *FileStore) Alloc() (int32, error) {
	s.ctr.allocs.Add(1)
	s.mu.Lock()
	var addr int32
	if n := len(s.free); n > 0 {
		addr = s.free[n-1]
		s.free = s.free[:n-1]
		s.state[addr] = stateLive
	} else {
		addr = int32(len(s.state))
		s.state = append(s.state, stateLive)
		s.writes = append(s.writes, 0)
		s.slots.Store(addr + 1)
	}
	s.live++
	s.mu.Unlock()
	if _, err := s.writeFrame(addr, slotLive, emptyBucket, s.Format()); err != nil {
		// Give the address back, or it is neither live nor free until the
		// next open: the last slot by rolling the count back, any other
		// to the free list.
		s.mu.Lock()
		s.live--
		if int(addr) == len(s.state)-1 {
			s.slots.Store(addr)
			s.state, s.writes = s.state[:addr], s.writes[:addr]
		} else {
			s.state[addr] = stateFree
			s.free = append(s.free, addr)
		}
		s.mu.Unlock()
		return 0, err
	}
	return addr, nil
}

// Free implements Store: the in-memory state check, then one positioned
// write.
func (s *FileStore) Free(addr int32) error {
	if err := s.checkLive(addr, "free"); err != nil {
		return err
	}
	if _, err := s.writeFrame(addr, slotFree, nil, 0); err != nil {
		return err
	}
	s.ctr.frees.Add(1)
	s.mu.Lock()
	s.state[addr] = stateFree
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

// ClearSlot implements SlotClearer: the slot is marked free regardless of
// its content or state. Write and Free refuse a damaged slot; this is the
// release path for quarantined slots (their bytes already preserved) and
// for referenced slots that vanished.
func (s *FileStore) ClearSlot(addr int32) error {
	if n := s.slots.Load(); addr < 0 || addr >= n {
		return fmt.Errorf("%w: clear of slot %d of %d", ErrNotAllocated, addr, n)
	}
	if _, err := s.writeFrame(addr, slotFree, nil, 0); err != nil {
		return err
	}
	s.mu.Lock()
	switch s.state[addr] {
	case stateLive:
		s.live--
		s.free = append(s.free, addr)
	case stateDamaged:
		s.free = append(s.free, addr)
	}
	s.state[addr] = stateFree
	s.mu.Unlock()
	return nil
}

// ClaimReferenced checks the slots a file's metadata references against
// the scan at open: each slot in addrs that the scan found free becomes
// damaged, so Alloc cannot hand it out while the trie still points at it
// (Scrub releases it). Addresses past the end of the file are left alone.
func (s *FileStore) ClaimReferenced(addrs []int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	marked := false
	for _, a := range addrs {
		if a >= 0 && int(a) < len(s.state) && s.state[a] == stateFree {
			s.state[a] = stateDamaged
			marked = true
		}
	}
	if marked {
		s.free = slices.DeleteFunc(s.free, func(a int32) bool { return s.state[a] != stateFree })
	}
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
	fp := s.frame()
	defer s.frames.Put(fp)
	buf := *fp
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
