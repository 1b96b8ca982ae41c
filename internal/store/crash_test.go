package store

import (
	"errors"
	"io"
	"path/filepath"
	"testing"

	"triehash/internal/bucket"
	"triehash/internal/obs"
)

func TestCrashDiskContract(t *testing.T) {
	s, err := CreateMedium((&CrashDisk{}).Buckets(), 256)
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, s, false)
}

// openCut opens a power-cut image's bucket file with the shipped store.
func openCut(t *testing.T, img *CrashDisk) *FileStore {
	t.Helper()
	s, err := OpenMedium(img.Buckets())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCrashDiskJournalAndPowerCut verifies the journal/barrier model under
// the shipped FileStore: a power cut at a Sync mark reproduces exactly the
// state that was synced, a cut at the full journal reproduces the present,
// and the reopened image's bookkeeping (live count, free-list reuse)
// matches the surviving flags.
func TestCrashDiskJournalAndPowerCut(t *testing.T) {
	disk := &CrashDisk{}
	fs, err := CreateMedium(disk.Buckets(), 128)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(k, v string) *bucket.Bucket {
		b := bucket.New(4)
		b.Put(k, []byte(v))
		return b
	}
	a0, _ := fs.Alloc()
	a1, _ := fs.Alloc()
	if err := fs.Write(a0, mk("alpha", "1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	mark := disk.Journal()
	if mark != 4 {
		t.Fatalf("journal after header + 2 allocs + 1 write = %d, want 4", mark)
	}
	if err := fs.Write(a1, mk("beta", "2")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Free(a0); err != nil {
		t.Fatal(err)
	}
	if got := disk.Buckets().Synced(); got != mark {
		t.Fatalf("Synced() = %d, want %d", got, mark)
	}
	if got := disk.Log().Synced(); got != 0 {
		t.Fatalf("log Synced() = %d, want 0: a bucket sync is no log barrier", got)
	}

	// Cut at zero: not even the file header survives.
	if _, err := OpenMedium(disk.PowerCut(0).Buckets()); err == nil {
		t.Fatal("empty cut opened as a bucket file")
	}
	// Cut after the header: an empty bucket file.
	if img := openCut(t, disk.PowerCut(1)); img.Buckets() != 0 || img.MaxAddr() != 0 {
		t.Fatalf("header-only cut: %d buckets, max addr %d", img.Buckets(), img.MaxAddr())
	}

	// Cut at the barrier: the synced state, exactly.
	img := openCut(t, disk.PowerCut(mark))
	if img.Buckets() != 2 {
		t.Fatalf("cut at sync: %d buckets, want 2", img.Buckets())
	}
	b, err := img.Read(a0)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Get("alpha"); !ok || string(v) != "1" {
		t.Fatalf("synced record = %q %v", v, ok)
	}
	if b, err := img.Read(a1); err != nil || b.Len() != 0 {
		t.Fatalf("a1 at sync: len %v err %v, want the empty alloc image", b, err)
	}

	// Cut at the full journal: the present, including the free.
	img = openCut(t, disk.PowerCut(disk.Journal()))
	if img.Buckets() != 1 {
		t.Fatalf("full cut: %d buckets, want 1", img.Buckets())
	}
	if _, err := img.Read(a0); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("freed slot in full cut: %v", err)
	}
	// The freed slot is back on the image's free list.
	if a, err := img.Alloc(); err != nil || a != a0 {
		t.Fatalf("image Alloc = %d, %v; want the freed %d reused", a, err, a0)
	}

	// Out-of-range cut positions clamp instead of panicking.
	if _, err := OpenMedium(disk.PowerCut(-5).Buckets()); err == nil {
		t.Fatal("negative cut not clamped to the empty image")
	}
	if openCut(t, disk.PowerCut(1<<20)).Buckets() != fs.Buckets() {
		t.Fatal("oversized cut not clamped to the full journal")
	}
}

// TestCrashDiskPowerCutDamaged verifies the torn in-flight write: the
// damaged slot fails to read in the way its kind implies, a damaged log
// append leaves a damaged tail, and the damage is deterministic in the
// seed.
func TestCrashDiskPowerCutDamaged(t *testing.T) {
	disk := &CrashDisk{}
	hook := &obs.Hook{}
	disk.SetObsHook(hook)
	o := obs.New(obs.Config{TraceDepth: 16})
	hook.Set(o)
	fs, err := CreateMedium(disk.Buckets(), 128)
	if err != nil {
		t.Fatal(err)
	}

	addr, _ := fs.Alloc()
	b := bucket.New(4)
	b.Put("key", []byte("value"))
	b.Put("key2", []byte("value2"))
	if err := fs.Write(addr, b); err != nil {
		t.Fatal(err)
	}
	k := disk.Journal() - 1 // the write is in flight

	for _, kind := range []CorruptKind{CorruptTear, CorruptFlip} {
		img, damaged := disk.PowerCutDamaged(k, kind, 7)
		if damaged != addr {
			t.Fatalf("%v: damaged addr = %d, want %d", kind, damaged, addr)
		}
		s := openCut(t, img)
		_, err := s.Read(addr)
		var ce *CorruptError
		if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) || ce.Addr != addr {
			t.Fatalf("%v: damaged read = %v, want CorruptError on %d", kind, err, addr)
		}
		// Determinism: the same cut parameters produce identical bytes.
		img2, _ := disk.PowerCutDamaged(k, kind, 7)
		r1, _ := s.ReadRaw(addr)
		r2, _ := openCut(t, img2).ReadRaw(addr)
		if string(r1) != string(r2) {
			t.Fatalf("%v: damage not deterministic in the seed", kind)
		}
	}

	// Zeroing wipes the flags: the slot reads as never allocated — the
	// undetectable loss the durability contract treats separately.
	img, damaged := disk.PowerCutDamaged(k, CorruptZero, 7)
	if damaged != addr {
		t.Fatalf("zero: damaged addr = %d, want %d", damaged, addr)
	}
	if _, err := openCut(t, img).Read(addr); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("zeroed read = %v, want ErrNotAllocated", err)
	}

	// With no mutation in flight there is nothing to damage.
	if _, damaged := disk.PowerCutDamaged(disk.Journal(), CorruptTear, 7); damaged != -1 {
		t.Fatalf("damaged addr at journal end = %d, want -1", damaged)
	}

	// A torn log append keeps a strict prefix of the chunk and damages no
	// slot.
	log := disk.Log()
	if _, err := log.WriteAt([]byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	img, damaged = disk.PowerCutDamaged(disk.Journal()-1, CorruptTear, 7)
	if damaged != -1 {
		t.Fatalf("torn log append damaged slot %d", damaged)
	}
	if n, _ := img.Log().Seek(0, io.SeekEnd); n >= 10 {
		t.Fatalf("torn log append left %d of 10 bytes, want a strict prefix", n)
	}

	if o.EventCount(obs.EvCorrupt) == 0 {
		t.Fatal("power-cut damage emitted no EvCorrupt event")
	}
}

// failingMedium is a crash-disk file whose WriteAt fails while fail is
// set — a medium that rejects writes on demand.
type failingMedium struct {
	*CrashFile
	fail bool
}

func (m *failingMedium) WriteAt(p []byte, off int64) (int, error) {
	if m.fail {
		return 0, errors.New("injected write failure")
	}
	return m.CrashFile.WriteAt(p, off)
}

// TestFileStoreAllocWriteFailure verifies that an Alloc whose slot write
// fails gives its address back: a reused address returns to the free
// list, a fresh one is not counted, and the next Alloc hands it out.
func TestFileStoreAllocWriteFailure(t *testing.T) {
	m := &failingMedium{CrashFile: (&CrashDisk{}).Buckets()}
	fs, err := CreateMedium(m, 128)
	if err != nil {
		t.Fatal(err)
	}
	a0, _ := fs.Alloc()
	if _, err := fs.Alloc(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Free(a0); err != nil {
		t.Fatal(err)
	}
	m.fail = true
	for i := 0; i < 2; i++ {
		if _, err := fs.Alloc(); err == nil {
			t.Fatal("Alloc succeeded on a failing medium")
		}
	}
	m.fail = false
	if fs.MaxAddr() != 2 || fs.Buckets() != 1 {
		t.Fatalf("after failed Allocs: max addr %d, %d buckets; want 2 and 1", fs.MaxAddr(), fs.Buckets())
	}
	if a, err := fs.Alloc(); err != nil || a != a0 {
		t.Fatalf("Alloc = %d, %v; want the freed %d", a, err, a0)
	}
	// A fresh address rolls back too.
	m.fail = true
	if _, err := fs.Alloc(); err == nil {
		t.Fatal("Alloc succeeded on a failing medium")
	}
	m.fail = false
	if a, err := fs.Alloc(); err != nil || a != 2 || fs.MaxAddr() != 3 {
		t.Fatalf("Alloc = %d, %v with max addr %d; want 2 and 3", a, err, fs.MaxAddr())
	}
}

// TestCorruptErrorChain verifies the typed corruption error is preserved
// through the full wrapper chain (Instrumented over a buffer pool over a
// FaultStore over a FileStore) for both errors.Is and errors.As.
func TestCorruptErrorChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "buckets.th")
	fs, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	chain := NewInstrumented(NewSharded(NewFault(fs), 8, 2), &obs.Hook{})

	addr, err := chain.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b := bucket.New(4)
	b.Put("key", []byte("value"))
	if err := chain.Write(addr, b); err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptSlot(addr, CorruptFlip, 3); err != nil {
		t.Fatal(err)
	}
	InvalidateAddr(chain, addr) // drop the clean cached frame

	_, err = chain.Read(addr)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read through the chain = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("read through the chain = %v, want a *CorruptError", err)
	}
	if ce.Addr != addr || ce.Reason == "" {
		t.Fatalf("CorruptError = %+v, want addr %d with a reason", ce, addr)
	}
	// The typed error does not swallow the unrelated sentinel.
	if _, err := chain.Read(addr + 99); errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("unallocated read = %v, want plain ErrNotAllocated", err)
	}
}

// TestFaultStoreArmCorrupt verifies the dirty injection mode: the tripped
// write reports success, the medium holds damage, and the injection is
// announced as an EvCorrupt event.
func TestFaultStoreArmCorrupt(t *testing.T) {
	fs := NewFault(NewMem())
	hook := &obs.Hook{}
	fs.SetObsHook(hook)
	o := obs.New(obs.Config{TraceDepth: 16})
	hook.Set(o)

	addr, _ := fs.Alloc()
	b := bucket.New(4)
	b.Put("key", []byte("value"))
	if err := fs.Write(addr, b); err != nil {
		t.Fatal(err)
	}
	if err := fs.ArmCorrupt(0, CorruptFlip, 11); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(addr, b); err != nil {
		t.Fatalf("dirty-mode write must report success, got %v", err)
	}
	if _, err := fs.Read(addr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read after dirty write = %v, want ErrCorrupt", err)
	}
	if o.EventCount(obs.EvCorrupt) != 1 {
		t.Fatalf("EvCorrupt count = %d, want 1", o.EventCount(obs.EvCorrupt))
	}
	fs.Disarm()
	// MemStore corruption is sticky until the slot is released — the
	// quarantine path Scrub follows.
	if c := AsSlotClearer(fs); c == nil {
		t.Fatal("no SlotClearer in the chain")
	} else if err := c.ClearSlot(addr); err != nil {
		t.Fatal(err)
	}
	again, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if again != addr {
		t.Fatalf("cleared slot %d not reused (got %d)", addr, again)
	}
	if err := fs.Write(again, b); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read(again); err != nil {
		t.Fatalf("rewrite after clearing did not restore the slot: %v", err)
	}
}

// TestQuarantineRoundTrip verifies the quarantine file: append, reread,
// append again, and tolerate a truncated tail.
func TestQuarantineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quarantine.th")
	first := []QuarantineEntry{
		{Addr: 3, Reason: "checksum mismatch", Raw: []byte{1, 2, 3}},
		{Addr: 9, Reason: "invalid slot flags 0x55", Raw: nil},
	}
	if err := AppendQuarantine(path, first); err != nil {
		t.Fatal(err)
	}
	if err := AppendQuarantine(path, []QuarantineEntry{{Addr: 12, Reason: "torn", Raw: []byte("xyz")}}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d entries, want 3", len(got))
	}
	if got[0].Addr != 3 || got[0].Reason != "checksum mismatch" || string(got[0].Raw) != "\x01\x02\x03" {
		t.Fatalf("entry 0 = %+v", got[0])
	}
	if got[2].Addr != 12 || string(got[2].Raw) != "xyz" {
		t.Fatalf("entry 2 = %+v", got[2])
	}
}
