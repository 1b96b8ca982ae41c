package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"testing"

	"triehash/internal/bucket"
	"triehash/internal/format"
)

// slotStore is a store with the damage and release surfaces both base
// stores implement.
type slotStore interface {
	Store
	Corrupter
	SlotClearer
}

// testMemAndDisk runs fn on a MemStore and on a FileStore writing each
// page version: one slot-state contract for both stores.
func testMemAndDisk(t *testing.T, fn func(t *testing.T, s slotStore)) {
	t.Run("mem", func(t *testing.T) { fn(t, NewMem()) })
	for _, v := range []format.Version{format.V1, format.V2} {
		t.Run(fmt.Sprintf("disk-v%d", v), func(t *testing.T) {
			s, err := CreateFile(filepath.Join(t.TempDir(), "buckets.th"), 256)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.SetFormat(v)
			fn(t, s)
		})
	}
}

func TestSlotStateFreed(t *testing.T) {
	testMemAndDisk(t, func(t *testing.T, s slotStore) {
		a, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Free(a); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(a, bucket.New(1)); !errors.Is(err, ErrNotAllocated) {
			t.Fatalf("Write of a freed slot: %v, want ErrNotAllocated", err)
		}
		if err := s.Free(a); !errors.Is(err, ErrNotAllocated) {
			t.Fatalf("Free of a freed slot: %v, want ErrNotAllocated", err)
		}
	})
}

// TestSlotStateDamaged: a slot whose Read failed with ErrCorrupt refuses
// Write and Free with ErrCorrupt and is never handed out by Alloc, until
// ClearSlot releases it for reuse.
func TestSlotStateDamaged(t *testing.T) {
	testMemAndDisk(t, func(t *testing.T, s slotStore) {
		a, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		b := bucket.New(2)
		b.Put("key", []byte("value"))
		if err := s.Write(a, b); err != nil {
			t.Fatal(err)
		}
		if err := s.CorruptSlot(a, CorruptFlip, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(a); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Read of a corrupted slot: %v, want ErrCorrupt", err)
		}
		if err := s.Write(a, b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Write of a damaged slot: %v, want ErrCorrupt", err)
		}
		if err := s.Free(a); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Free of a damaged slot: %v, want ErrCorrupt", err)
		}
		for i := 0; i < 3; i++ {
			if got, err := s.Alloc(); err != nil || got == a {
				t.Fatalf("Alloc = %d, %v while slot %d is damaged", got, err, a)
			}
		}
		if err := s.ClearSlot(a); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Alloc(); err != nil || got != a {
			t.Fatalf("Alloc after ClearSlot = %d, %v, want %d", got, err, a)
		}
		if err := s.Write(a, b); err != nil {
			t.Fatal(err)
		}
		got, err := s.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := got.Get("key"); !ok || string(v) != "value" {
			t.Fatalf("reused slot reads %q, %v", v, ok)
		}
		// A point lookup finds damage as a Read does and marks the slot
		// the same way.
		if err := s.CorruptSlot(a, CorruptFlip, 2); err != nil {
			t.Fatal(err)
		}
		views := NewViews(s)
		if _, _, err := views.Get(a, "key", nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Lookup of a corrupted slot: %v, want ErrCorrupt", err)
		}
		if err := s.Write(a, b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Write after a failed Lookup: %v, want ErrCorrupt", err)
		}
		if err := s.Free(a); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Free after a failed Lookup: %v, want ErrCorrupt", err)
		}
	})
}

// TestReadOwnsItsBucket is the frame-aliasing guard: a bucket Read
// returns, and a value a lookup returns, keep their bytes through later
// Lookups, Reads and Writes of the same store, which reuse the store's
// slot frames.
func TestReadOwnsItsBucket(t *testing.T) {
	testMemAndDisk(t, func(t *testing.T, s slotStore) {
		page := func(tag string) *bucket.Bucket {
			b := bucket.New(4)
			b.SetBound([]byte(tag + "~"))
			for i := 0; i < 4; i++ {
				b.Put(fmt.Sprintf("%s-key-%d", tag, i), []byte(fmt.Sprintf("%s-value-%d", tag, i)))
			}
			return b
		}
		var addrs []int32
		for _, tag := range []string{"a", "b"} {
			addr, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Write(addr, page(tag)); err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, addr)
		}
		held, err := s.Read(addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		views := NewViews(s)
		value, ok, err := views.Get(addrs[0], "a-key-2", nil)
		if err != nil || !ok {
			t.Fatalf("lookup of a-key-2: %v, %v", ok, err)
		}
		for i := 0; i < 4; i++ {
			if _, err := s.Read(addrs[1]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := views.Get(addrs[1], "b-key-2", nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(addrs[1], page(fmt.Sprintf("c%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if string(value) != "a-value-2" {
			t.Fatalf("looked-up value changed to %q", value)
		}
		want := page("a")
		if string(held.Bound()) != string(want.Bound()) || held.Len() != want.Len() {
			t.Fatalf("held bucket changed: bound %q, %d records", held.Bound(), held.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if r, w := held.At(i), want.At(i); r.Key != w.Key || string(r.Value) != string(w.Value) {
				t.Fatalf("held record %d is %q=%q, want %q=%q", i, r.Key, r.Value, w.Key, w.Value)
			}
		}
	})
}

// TestFileStoreWriteOverwritesUnreadDamage pins the one place the stores
// differ: a FileStore learns of damage only by reading it, so a Write to
// a slot the medium damaged that no Read has seen succeeds and replaces
// the damage (MemStore's injected corruption is known at once).
func TestFileStoreWriteOverwritesUnreadDamage(t *testing.T) {
	s, err := CreateFile(filepath.Join(t.TempDir(), "buckets.th"), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b := bucket.New(2)
	b.Put("key", []byte("value"))
	if err := s.CorruptSlot(a, CorruptTear, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(a, b); err != nil {
		t.Fatalf("Write over unread damage: %v", err)
	}
	if got, err := s.Read(a); err != nil || got.Len() != 1 {
		t.Fatalf("Read after the overwrite: %v", err)
	}
}

// countingMedium counts the positioned reads and writes a FileStore
// issues.
type countingMedium struct {
	*CrashFile
	reads, writes int
}

func (m *countingMedium) ReadAt(p []byte, off int64) (int, error) {
	m.reads++
	return m.CrashFile.ReadAt(p, off)
}

func (m *countingMedium) WriteAt(p []byte, off int64) (int, error) {
	m.writes++
	return m.CrashFile.WriteAt(p, off)
}

// TestFileStoreOneSyscallPerTransfer gates the paper's disk model on the
// medium itself: a Read is one positioned read, a Write and a Free are
// one positioned write each, and neither reads the slot back.
func TestFileStoreOneSyscallPerTransfer(t *testing.T) {
	m := &countingMedium{CrashFile: (&CrashDisk{}).Buckets()}
	s, err := CreateMedium(m, 256)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b := bucket.New(2)
	b.Put("key", []byte("value"))
	for _, op := range []struct {
		name          string
		do            func() error
		reads, writes int
	}{
		{"Write", func() error { return s.Write(a, b) }, 0, 1},
		{"Read", func() error { _, err := s.Read(a); return err }, 1, 0},
		{"Lookup", func() error { _, _, err := s.Lookup(a, "key"); return err }, 1, 0},
		{"Free", func() error { return s.Free(a) }, 0, 1},
	} {
		m.reads, m.writes = 0, 0
		before := s.Counters()
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if m.reads != op.reads || m.writes != op.writes {
			t.Errorf("%s issued %d ReadAt and %d WriteAt, want %d and %d", op.name, m.reads, m.writes, op.reads, op.writes)
		}
		// The paper's unit: a lookup is one bucket read, like Read.
		if d := s.Counters().Sub(before); d.Reads != int64(op.reads) {
			t.Errorf("%s counted %d bucket reads, want %d", op.name, d.Reads, op.reads)
		}
	}
}

// writePage stores payload in slot addr as a verified frame: the right
// flags, length and checksum around whatever bytes payload holds.
func writePage(t *testing.T, s *FileStore, addr int32, payload []byte) {
	t.Helper()
	frame := make([]byte, s.slotSize)
	frame[0] = slotLive
	binary.LittleEndian.PutUint32(frame[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[5:], crc32.ChecksumIEEE(payload))
	copy(frame[slotHeaderSize:], payload)
	if _, err := s.f.WriteAt(frame, s.offset(addr)); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreLookupPageErrors: a lookup of a checksum-valid page that
// does not decode fails as Read does. Bad framing is corruption and
// damages the slot; a future version is intact and marks nothing.
func TestFileStoreLookupPageErrors(t *testing.T) {
	s, err := CreateFile(filepath.Join(t.TempDir(), "buckets.th"), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := bucket.New(2)
	b.Put("key", []byte("value"))
	good := b.AppendFormat(nil, format.V2)

	a, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	writePage(t, s, a, good[:len(good)-2]) // the value runs past the page
	var ce *CorruptError
	if _, _, err := s.Lookup(a, "key"); !errors.As(err, &ce) {
		t.Fatalf("Lookup of a badly framed page: %v, want a CorruptError", err)
	}
	if err := s.Write(a, b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Write after a failed Lookup: %v, want ErrCorrupt", err)
	}

	f, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	future := append([]byte(nil), good...)
	future[4] = 9
	writePage(t, s, f, future)
	var uve *format.UnknownVersionError
	if _, _, err := s.Lookup(f, "key"); !errors.As(err, &uve) {
		t.Fatalf("Lookup of a future page: %v, want *format.UnknownVersionError", err)
	}
	if err := s.Write(f, b); err != nil {
		t.Fatalf("Write after a version refusal: %v; the slot must not be damaged", err)
	}
	if v, ok, err := s.Lookup(f, "key"); err != nil || !ok || string(v) != "value" {
		t.Fatalf("Lookup after the rewrite = %q, %v, %v", v, ok, err)
	}
}

// tearingMedium runs tear, once, in the middle of the next slot-sized
// read: the read copies the slot header and a few payload bytes, tear
// runs (a write of the same slot), and the read copies the rest — the
// interleaving a pread and a pwrite of one slot can have.
type tearingMedium struct {
	*CrashFile
	slotSize int
	tear     func()
}

func (m *tearingMedium) ReadAt(p []byte, off int64) (int, error) {
	tear := m.tear
	if tear == nil || len(p) != m.slotSize {
		return m.CrashFile.ReadAt(p, off)
	}
	m.tear = nil
	const head = slotHeaderSize + 4
	if n, err := m.CrashFile.ReadAt(p[:head], off); err != nil {
		return n, err
	}
	tear()
	n, err := m.CrashFile.ReadAt(p[head:], off+head)
	return head + n, err
}

// TestFileStoreReadOverlappingWrite: a Read or Lookup that a Write of the
// same slot tears returns a whole page, the old or the new, and leaves
// the slot writable — as a MemStore reader would.
func TestFileStoreReadOverlappingWrite(t *testing.T) {
	m := &tearingMedium{CrashFile: (&CrashDisk{}).Buckets(), slotSize: 256}
	s, err := CreateMedium(m, 256)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	page := func(v string) *bucket.Bucket {
		b := bucket.New(2)
		b.Put("key", []byte(v))
		return b
	}
	old := "value-0000"
	if err := s.Write(a, page(old)); err != nil {
		t.Fatal(err)
	}
	for i, read := range []struct {
		name string
		do   func() ([]byte, error)
	}{
		{"Read", func() ([]byte, error) {
			b, err := s.Read(a)
			if err != nil {
				return nil, err
			}
			v, _ := b.Get("key")
			return v, nil
		}},
		{"Lookup", func() ([]byte, error) {
			v, _, err := s.Lookup(a, "key")
			return v, err
		}},
	} {
		next := fmt.Sprintf("value-%04d", i+1)
		m.tear = func() {
			if err := s.Write(a, page(next)); err != nil {
				t.Errorf("%s: Write during the read: %v", read.name, err)
			}
		}
		v, err := read.do()
		switch {
		case err != nil:
			t.Errorf("%s torn by a Write: %v", read.name, err)
		case string(v) != old && string(v) != next:
			t.Errorf("%s torn by a Write = %q, want %q or %q", read.name, v, old, next)
		}
		if err := s.Write(a, page(next)); err != nil {
			t.Fatalf("Write after a torn %s: %v", read.name, err)
		}
		old = next
	}
}
