package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ErrCorrupt is the sentinel every detected-corruption error matches with
// errors.Is: a slot whose checksum, length frame or payload encoding no
// longer decodes. It is distinct from ErrNotAllocated (a cleanly freed or
// never-written slot) because corruption is evidence of a torn write or
// media fault — the caller can salvage (quarantine the slot and rebuild
// the trie from the survivors) instead of treating the address as absent.
var ErrCorrupt = errors.New("store: corrupt slot")

// CorruptError reports an unreadable slot with its address, so recovery
// tooling (File.Scrub, thcheck -repair) knows exactly which bucket to
// quarantine. It matches ErrCorrupt under errors.Is and is reachable with
// errors.As through every store wrapper (Instrumented, FaultStore, the
// buffer pools), which forward read errors unchanged.
type CorruptError struct {
	// Addr is the slot address that failed to read.
	Addr int32
	// Reason describes the failure ("checksum mismatch", "corrupt
	// length 91442", a payload decode error...).
	Reason string
}

// Error renders the address and reason.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: slot %d: corrupt: %s", e.Addr, e.Reason)
}

// Is makes errors.Is(err, ErrCorrupt) true for every CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// CorruptKind selects how an injected corruption damages a slot — the
// dirty-failure modes a power cut leaves behind, as opposed to the clean
// whole-operation failures FaultStore's error mode injects.
type CorruptKind int

const (
	// CorruptTear truncates the slot mid-payload: the prefix of the write
	// reached the medium, the suffix did not (a torn multi-sector write).
	// The checksum no longer covers the payload, so reads detect it.
	CorruptTear CorruptKind = iota
	// CorruptFlip inverts one payload bit (media decay, a misdirected
	// DMA). Reads detect it through the checksum.
	CorruptFlip
	// CorruptZero zeroes the slot header: the slot reads back as freed,
	// silently dropping its bucket — the nastiest case, detectable only
	// structurally (a trie leaf pointing at a missing slot).
	CorruptZero
)

func (k CorruptKind) String() string {
	switch k {
	case CorruptTear:
		return "tear"
	case CorruptFlip:
		return "flip"
	case CorruptZero:
		return "zero"
	}
	return fmt.Sprintf("CorruptKind(%d)", int(k))
}

// Corrupter is the optional slot-damage surface of a store; fault
// injection (FaultStore corrupt modes, crash tests) uses it to plant the
// dirty failures the salvage path must survive.
type Corrupter interface {
	// CorruptSlot damages addr in place per kind. seed makes the damaged
	// byte/bit deterministic, so crash tests replay exactly.
	CorruptSlot(addr int32, kind CorruptKind, seed int64) error
}

// RawReader is the optional raw-slot surface of a store: the slot's bytes
// as stored, served without checksum verification. Scrub uses it to
// preserve unreadable slots in the quarantine file before clearing them.
type RawReader interface {
	// ReadRaw returns a copy of the raw bytes of slot addr.
	ReadRaw(addr int32) ([]byte, error)
}

// SlotClearer is the optional unconditional-release surface of a store.
// Free refuses slots that no longer read back (their flags are
// unverifiable); ClearSlot releases them anyway — the quarantine step of
// Scrub, after the raw bytes are saved.
type SlotClearer interface {
	// ClearSlot marks addr free regardless of its current content.
	ClearSlot(addr int32) error
}

// AsCorrupter returns the first Corrupter in s's wrapper chain, or nil.
func AsCorrupter(s Store) Corrupter {
	for ; s != nil; s = Unwrap(s) {
		if c, ok := s.(Corrupter); ok {
			return c
		}
	}
	return nil
}

// AsRawReader returns the first RawReader in s's wrapper chain, or nil.
func AsRawReader(s Store) RawReader {
	for ; s != nil; s = Unwrap(s) {
		if r, ok := s.(RawReader); ok {
			return r
		}
	}
	return nil
}

// AsSlotClearer returns the first SlotClearer in s's wrapper chain, or nil.
func AsSlotClearer(s Store) SlotClearer {
	for ; s != nil; s = Unwrap(s) {
		if c, ok := s.(SlotClearer); ok {
			return c
		}
	}
	return nil
}

// Base returns the innermost store of s's wrapper chain — the layer that
// actually holds the slots. Scrub scans it directly so a warm buffer pool
// cannot mask on-medium corruption with a stale good frame.
func Base(s Store) Store {
	for {
		u, ok := s.(Unwrapper)
		if !ok {
			return s
		}
		s = u.Unwrap()
	}
}

// InvalidateAddr drops addr's frame from the buffer pool in s's wrapper
// chain, if there is one. Needed when a slot is modified beneath the pool
// (ClearSlot on the base store): a retained frame would resurrect the
// cleared bucket.
func InvalidateAddr(s Store, addr int32) {
	if c := AsSharded(s); c != nil {
		c.Invalidate(addr)
	}
}

// damageFrame damages a framed slot in place per kind. buf is the slot's
// bytes in the common frame layout (flags, payload length, crc32, payload,
// optional padding); mix supplies the deterministic entropy choosing the
// damaged offset and bit. Shared by FileStore.CorruptSlot and CrashDisk's
// power-cut boundary write, so both injectors tear identically.
func damageFrame(buf []byte, kind CorruptKind, mix uint64) error {
	n := int(binary.LittleEndian.Uint32(buf[1:]))
	if n < 0 || n > len(buf)-slotHeaderSize {
		n = len(buf) - slotHeaderSize
	}
	used := slotHeaderSize + n
	switch kind {
	case CorruptTear:
		// The write's prefix reached the medium; the rest of the slot
		// holds whatever the sectors held before — zeros here.
		cut := 1 + int(mix%uint64(used-1))
		changed := false
		for i := cut; i < used; i++ {
			if buf[i] != 0 {
				changed = true
			}
			buf[i] = 0
		}
		if !changed {
			buf[5] ^= 0x01 // the torn suffix was already zero; damage the crc
		}
	case CorruptFlip:
		if n > 0 {
			buf[slotHeaderSize+int(mix%uint64(n))] ^= 1 << ((mix >> 32) % 8)
		} else {
			buf[5] ^= 1 << ((mix >> 32) % 8) // no payload: flip a crc bit
		}
	case CorruptZero:
		for i := 0; i < used; i++ {
			buf[i] = 0
		}
	default:
		return fmt.Errorf("store: unknown corruption kind %v", kind)
	}
	return nil
}

// corruptMix derives a deterministic pseudo-random value from a seed and a
// slot address (splitmix64 finalizer): fault injection must be replayable,
// so the damaged offset and bit come from the caller's seed, never from a
// global entropy source.
func corruptMix(seed int64, addr int32) uint64 {
	z := uint64(seed) ^ (uint64(uint32(addr)) * 0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Quarantine file format: unreadable slots preserved verbatim before
// their slots are cleared, so no byte of a customer's data is destroyed by
// repair — a later forensic pass can still try to extract records.
//
//	header (8 bytes): magic "THQR", version
//	entry: addr (4), reason length (4), raw length (4),
//	       crc32 of reason+raw (4), reason bytes, raw bytes
const (
	quarMagic   = 0x54485152 // "THQR"
	quarVersion = 1
)

// QuarantineEntry is one preserved slot in a quarantine file.
type QuarantineEntry struct {
	// Addr is the slot address the bucket occupied.
	Addr int32
	// Reason is the read failure that condemned it.
	Reason string
	// Raw is the slot's bytes as they were on the medium (nil when the
	// store could not produce them).
	Raw []byte
}

// AppendQuarantine appends entries to the quarantine file at path,
// creating it (with its header) if needed, and fsyncs the result: a
// quarantined bucket must be durable before its slot is cleared.
func AppendQuarantine(path string, entries []QuarantineEntry) error {
	if len(entries) == 0 {
		return nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return err
	}
	var buf []byte
	if st.Size() == 0 {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], quarMagic)
		binary.LittleEndian.PutUint32(hdr[4:], quarVersion)
		buf = append(buf, hdr[:]...)
	}
	for _, e := range entries {
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(e.Addr))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(e.Reason)))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(e.Raw)))
		sum := crc32.NewIEEE()
		sum.Write([]byte(e.Reason))
		sum.Write(e.Raw)
		binary.LittleEndian.PutUint32(hdr[12:], sum.Sum32())
		buf = append(buf, hdr[:]...)
		buf = append(buf, e.Reason...)
		buf = append(buf, e.Raw...)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadQuarantine parses a quarantine file. Entries whose checksum fails
// are reported with an error but parsing continues — the quarantine file
// exists precisely because the medium is suspect.
func ReadQuarantine(path string) ([]QuarantineEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 || binary.LittleEndian.Uint32(data[0:]) != quarMagic {
		return nil, fmt.Errorf("store: %s is not a quarantine file", path)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != quarVersion {
		return nil, fmt.Errorf("store: quarantine version %d unsupported", v)
	}
	var out []QuarantineEntry
	var firstErr error
	for off := 8; off < len(data); {
		if off+16 > len(data) {
			if firstErr == nil {
				firstErr = fmt.Errorf("store: quarantine entry truncated at offset %d", off)
			}
			break
		}
		addr := int32(binary.LittleEndian.Uint32(data[off:]))
		rlen := int(binary.LittleEndian.Uint32(data[off+4:]))
		blen := int(binary.LittleEndian.Uint32(data[off+8:]))
		want := binary.LittleEndian.Uint32(data[off+12:])
		off += 16
		if off+rlen+blen > len(data) {
			if firstErr == nil {
				firstErr = fmt.Errorf("store: quarantine entry for slot %d truncated", addr)
			}
			break
		}
		reason := string(data[off : off+rlen])
		raw := append([]byte(nil), data[off+rlen:off+rlen+blen]...)
		off += rlen + blen
		sum := crc32.NewIEEE()
		sum.Write([]byte(reason))
		sum.Write(raw)
		if sum.Sum32() != want {
			if firstErr == nil {
				firstErr = fmt.Errorf("store: quarantine entry for slot %d fails its checksum", addr)
			}
			continue
		}
		out = append(out, QuarantineEntry{Addr: addr, Reason: reason, Raw: raw})
	}
	return out, firstErr
}
