package store

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"triehash/internal/obs"
)

// CrashDisk simulates a disk whose write cache is volatile, holding the
// two files a durable file keeps: the bucket file and the write-ahead log.
// Every write and truncate lands in the current image immediately (the
// running process sees its own writes), but is also journaled, in one
// order across both files, and each Sync records a durability barrier.
// PowerCut then materializes the disk a power cut would leave behind — the
// journal prefix up to an arbitrary mutation, with the first in-flight
// write optionally torn, bit-flipped or zeroed — and the crash harness
// reopens its files with the shipped FileStore and wal.FileDevice and
// verifies the result against the durability contract. The zero value is
// a disk with two empty files.
type CrashDisk struct {
	mu    sync.Mutex
	files [2][]byte // current contents, indexed by diskBuckets/diskLog
	// journal records every write and truncate in order; synced holds
	// each file's journal length at its last Sync barrier.
	journal []diskMut
	synced  [2]int

	hook *obs.Hook
}

// The two files of a CrashDisk.
const (
	diskBuckets = iota
	diskLog
)

// diskMut is one journaled mutation of a file: data written at off, or,
// for a truncate, the file cut (or zero-extended) to length off.
type diskMut struct {
	file  int
	trunc bool
	off   int64
	data  []byte
}

// applyTo returns buf with the mutation applied; data is copied, never
// aliased.
func (m diskMut) applyTo(buf []byte) []byte {
	end := m.off + int64(len(m.data))
	if end > int64(len(buf)) {
		buf = append(buf, make([]byte, end-int64(len(buf)))...)
	}
	if m.trunc {
		return buf[:m.off]
	}
	copy(buf[m.off:], m.data)
	return buf
}

// SetObsHook attaches the observability hook power-cut corruption events
// go to.
func (d *CrashDisk) SetObsHook(h *obs.Hook) { d.hook = h }

// Buckets returns the disk's bucket file.
func (d *CrashDisk) Buckets() *CrashFile { return &CrashFile{d: d, id: diskBuckets} }

// Log returns the disk's write-ahead log file.
func (d *CrashDisk) Log() *CrashFile { return &CrashFile{d: d, id: diskLog} }

// Journal returns the number of mutations recorded so far.
func (d *CrashDisk) Journal() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.journal)
}

// CrashFile is one file of a CrashDisk. It is a Medium for FileStore and
// for wal.FileDevice; its writes, truncates and syncs go to the disk's
// journal.
type CrashFile struct {
	d  *CrashDisk
	id int
}

// ReadAt implements io.ReaderAt over the file's current image.
func (f *CrashFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("store: crash file read at negative offset")
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	buf := f.d.files[f.id]
	if off >= int64(len(buf)) {
		return 0, io.EOF
	}
	n := copy(p, buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, journaling the write.
func (f *CrashFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("store: crash file write at negative offset")
	}
	f.d.apply(diskMut{file: f.id, off: off, data: append([]byte(nil), p...)})
	return len(p), nil
}

// Truncate changes the file's length, journaling the change.
func (f *CrashFile) Truncate(size int64) error {
	if size < 0 {
		return fmt.Errorf("store: crash file truncate to %d", size)
	}
	f.d.apply(diskMut{file: f.id, trunc: true, off: size})
	return nil
}

// Seek reports the file's length for Seek(0, io.SeekEnd), the only query
// the positioned-I/O users of a Medium make.
func (f *CrashFile) Seek(offset int64, whence int) (int64, error) {
	if offset != 0 || whence != io.SeekEnd {
		return 0, errors.New("store: crash file supports only Seek(0, io.SeekEnd)")
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	return int64(len(f.d.files[f.id])), nil
}

// Sync records a durability barrier for the file: every journaled write
// to it before this point survives any later power cut.
func (f *CrashFile) Sync() error {
	f.d.mu.Lock()
	f.d.synced[f.id] = len(f.d.journal)
	f.d.mu.Unlock()
	return nil
}

// Synced returns the journal length at the file's last Sync barrier (0
// before the first).
func (f *CrashFile) Synced() int {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	return f.d.synced[f.id]
}

// Close implements io.Closer; the disk owns the file's lifetime.
func (f *CrashFile) Close() error { return nil }

// apply installs m on the current image and journals it.
func (d *CrashDisk) apply(m diskMut) {
	d.mu.Lock()
	d.files[m.file] = m.applyTo(d.files[m.file])
	d.journal = append(d.journal, m)
	d.mu.Unlock()
}

// PowerCut returns the disk image a power cut leaves after exactly
// applied journaled mutations reached the medium: the journal prefix
// replayed onto two empty files.
func (d *CrashDisk) PowerCut(applied int) *CrashDisk {
	img, _ := d.cut(applied, false, 0, 0)
	return img
}

// PowerCutDamaged is PowerCut with the first in-flight mutation (journal
// index applied) additionally reaching the medium damaged per kind — the
// torn multi-sector write a real power cut produces. A slot write is
// damaged like FileStore.CorruptSlot damages a slot, and its address is
// returned; any other write (a log append, the file header) is damaged as
// raw bytes and -1 is returned, as it is when no write was in flight. The
// damage is deterministic in seed and is reported to the attached
// observer as an EvCorrupt event.
func (d *CrashDisk) PowerCutDamaged(applied int, kind CorruptKind, seed int64) (*CrashDisk, int32) {
	return d.cut(applied, true, kind, seed)
}

func (d *CrashDisk) cut(applied int, damage bool, kind CorruptKind, seed int64) (*CrashDisk, int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	applied = max(0, min(applied, len(d.journal)))
	img := &CrashDisk{}
	for _, m := range d.journal[:applied] {
		img.files[m.file] = m.applyTo(img.files[m.file])
	}
	if !damage || applied == len(d.journal) || d.journal[applied].trunc {
		// A truncate either happened or did not; there is no torn state
		// to inject, so the damaged variant equals the clean cut.
		return img, -1
	}
	m := d.journal[applied]
	m.data = append([]byte(nil), m.data...)
	addr := int32(-1)
	what := "log append"
	var err error
	if m.file == diskBuckets && m.off >= fileHeaderSize {
		// FileStore writes whole slots past the header, so the write's
		// length is the slot size.
		addr = int32((m.off - fileHeaderSize) / int64(len(m.data)))
		what = "write"
		err = damageFrame(m.data, kind, corruptMix(seed, addr))
	} else {
		if m.file == diskBuckets {
			what = "file header write"
		}
		var keep int
		keep, err = damageBytes(m.data, kind, corruptMix(seed, int32(m.off)))
		m.data = m.data[:keep]
	}
	if err != nil {
		return img, -1
	}
	img.files[m.file] = m.applyTo(img.files[m.file])
	d.hook.Observer().Emit(obs.Event{
		Type: obs.EvCorrupt, Op: obs.OpWrite, Addr: addr,
		Detail: fmt.Sprintf("power cut tore in-flight %s (%s)", what, kind),
	})
	return img, addr
}

// damageBytes damages a raw byte chunk in place per kind — the log-append
// analogue of damageFrame, for bytes with no slot-frame layout. It
// returns how many leading bytes reached the medium: a tear keeps a
// strict prefix (the suffix never landed), a flip or zero keeps the whole
// damaged chunk.
func damageBytes(buf []byte, kind CorruptKind, mix uint64) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("store: cannot damage an empty chunk")
	}
	switch kind {
	case CorruptTear:
		return int(mix % uint64(len(buf))), nil
	case CorruptFlip:
		buf[mix%uint64(len(buf))] ^= 1 << ((mix >> 32) % 8)
		return len(buf), nil
	case CorruptZero:
		for i := range buf {
			buf[i] = 0
		}
		return len(buf), nil
	default:
		return 0, fmt.Errorf("store: unknown corruption kind %v", kind)
	}
}
