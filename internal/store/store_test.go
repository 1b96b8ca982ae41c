package store

import (
	"errors"
	"path/filepath"
	"testing"

	"triehash/internal/bucket"
)

// storeContract exercises the Store interface invariants shared by every
// implementation.
func storeContract(t *testing.T, s Store, cached bool) {
	t.Helper()
	a0, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if a0 == a1 {
		t.Fatal("Alloc returned the same address twice")
	}
	if s.Buckets() != 2 {
		t.Fatalf("Buckets() = %d", s.Buckets())
	}

	b := bucket.New(4)
	b.Put("key", []byte("value"))
	if err := s.Write(a0, b); err != nil {
		t.Fatal(err)
	}
	// Caller mutations after Write must not leak into the store.
	b.Put("key2", []byte("other"))
	got, err := s.Read(a0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("read bucket has %d records; Write is not a snapshot", got.Len())
	}
	if v, ok := got.Get("key"); !ok || string(v) != "value" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	// Mutating a read bucket must not change the store.
	got.Delete("key")
	again, err := s.Read(a0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != 1 {
		t.Fatal("mutating a read bucket changed the store")
	}

	// Freed addresses are rejected and then reused.
	if err := s.Free(a1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(a1); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("read of freed slot: %v", err)
	}
	if err := s.Write(a1, b); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("write of freed slot: %v", err)
	}
	if err := s.Free(a1); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("double free: %v", err)
	}
	a2, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1 {
		t.Fatalf("freed address %d not reused (got %d)", a1, a2)
	}
	if s.MaxAddr() != 2 {
		t.Fatalf("MaxAddr = %d", s.MaxAddr())
	}

	// Counters.
	c := s.Counters()
	if !cached && (c.Reads < 2 || c.Writes < 1) {
		t.Fatalf("counters: %v", c)
	}
	if c.Allocs != 3 || c.Frees != 1 {
		t.Fatalf("counters: %v", c)
	}
	s.ResetCounters()
	if s.Counters() != (Counters{}) {
		t.Fatal("ResetCounters did not zero")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreContract(t *testing.T) {
	storeContract(t, NewMem(), false)
}

func TestFileStoreContract(t *testing.T) {
	s, err := CreateFile(filepath.Join(t.TempDir(), "buckets.th"), 256)
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, s, false)
}

func TestMemStoreInvalidAddrs(t *testing.T) {
	s := NewMem()
	if _, err := s.Read(-1); !errors.Is(err, ErrNotAllocated) {
		t.Errorf("read(-1): %v", err)
	}
	if _, err := s.Read(7); !errors.Is(err, ErrNotAllocated) {
		t.Errorf("read(7): %v", err)
	}
}

func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "buckets.th")
	s, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []int32
	for i := 0; i < 5; i++ {
		a, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		b := bucket.New(2)
		b.Put(string(rune('a'+i)), []byte{byte(i)})
		if err := s.Write(a, b); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if err := s.Free(addrs[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Buckets() != 4 || r.MaxAddr() != 5 {
		t.Fatalf("reopened: buckets=%d max=%d", r.Buckets(), r.MaxAddr())
	}
	if _, err := r.Read(addrs[2]); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("freed slot survived reopen: %v", err)
	}
	b, err := r.Read(addrs[4])
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Get("e"); !ok || v[0] != 4 {
		t.Fatalf("record lost across reopen: %v %v", v, ok)
	}
	// Freed slot is reused after reopen.
	a, err := r.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if a != addrs[2] {
		t.Fatalf("expected reuse of %d, got %d", addrs[2], a)
	}
}

func TestFileStoreCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "buckets.th")
	s, err := CreateFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Alloc()
	b := bucket.New(2)
	b.Put("k", []byte("v"))
	if err := s.Write(a, b); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte behind the store's back (the record area, past
	// the bucket's bound header).
	if _, err := s.f.WriteAt([]byte{0x5A}, fileHeaderSize+slotHeaderSize+9); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(a); err == nil {
		t.Fatal("corruption not detected")
	}
	s.Close()
}

func TestFileStoreOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file must fail")
	}
	bad := filepath.Join(dir, "bad")
	if err := writeJunk(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad); err == nil {
		t.Error("bad magic must fail")
	}
	if _, err := CreateFile(filepath.Join(dir, "tiny"), 4); err == nil {
		t.Error("tiny slot size must fail")
	}
}

func TestFileStoreOversizeBucket(t *testing.T) {
	s, err := CreateFile(filepath.Join(t.TempDir(), "b.th"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, _ := s.Alloc()
	b := bucket.New(2)
	b.Put("key", make([]byte, 100))
	if err := s.Write(a, b); err == nil {
		t.Fatal("oversize bucket accepted")
	}
}

func writeJunk(path string) error {
	s, err := CreateFile(path, 64)
	if err != nil {
		return err
	}
	if _, err := s.f.WriteAt([]byte("JUNKJUNK"), 0); err != nil {
		return err
	}
	return s.Close()
}
