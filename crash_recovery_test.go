package triehash

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"triehash/internal/store"
	"triehash/internal/workload"
)

// buildDamagedDB creates a persistent database, closes it cleanly and
// returns its directory and key set.
func buildDamagedDB(t *testing.T, n int) (string, []string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	f, err := CreateAt(dir, Options{BucketCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.Uniform(99, n, 3, 9)
	for _, k := range ks {
		if err := f.Put(k, []byte("v:"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, ks
}

// TestOpenAtDamagedMeta drives OpenAt against every flavour of metadata
// damage: truncation, a flipped byte (the trailing CRC catches it) and a
// zero-length file. Each must fall back to salvage and reproduce every
// record, and a salvaging OpenAtWith must keep the buffer pool it asks
// for.
func TestOpenAtDamagedMeta(t *testing.T) {
	damage := map[string]func(t *testing.T, path string){
		"truncated": func(t *testing.T, path string) {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()/2); err != nil {
				t.Fatal(err)
			}
		},
		"bitflip": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/3] ^= 0x10
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"zero-length": func(t *testing.T, path string) {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, inflict := range damage {
		t.Run(name, func(t *testing.T) {
			for _, opts := range []Options{{}, {CacheFrames: 64}} {
				dir, ks := buildDamagedDB(t, 300)
				inflict(t, filepath.Join(dir, "meta.th"))
				f, err := OpenAtWith(dir, opts)
				if err != nil {
					t.Fatalf("OpenAtWith(%+v) did not salvage: %v", opts, err)
				}
				defer f.Close()
				if f.Len() != len(ks) {
					t.Fatalf("salvaged Len = %d, want %d", f.Len(), len(ks))
				}
				for _, k := range ks {
					v, err := f.Get(k)
					if err != nil || string(v) != "v:"+k {
						t.Fatalf("salvaged Get(%q) = %q, %v", k, v, err)
					}
				}
				if err := f.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if st := f.Stats(); opts.CacheFrames > 0 && st.CacheHits+st.CacheMisses == 0 {
					t.Fatalf("salvaged file with CacheFrames %d has no buffer pool", opts.CacheFrames)
				}
			}
		})
	}
}

// TestOpenAtDamagedBuckets verifies the bucket-file side: a flipped
// payload byte surfaces as ErrCorrupt on reads and is repaired by Scrub
// with the loss quarantined and reported; a zero-length bucket file
// leaves nothing to salvage from and must fail loudly.
func TestOpenAtDamagedBuckets(t *testing.T) {
	dir, ks := buildDamagedDB(t, 300)

	// Flip one payload byte in the first slot's record area (offset past
	// the 32-byte file header and the 9-byte slot header).
	bf, err := os.OpenFile(filepath.Join(dir, "buckets.th"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := bf.ReadAt(one[:], 60); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x40
	if _, err := bf.WriteAt(one[:], 60); err != nil {
		t.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := OpenAt(dir)
	if err != nil {
		t.Fatalf("OpenAt with a damaged bucket must still open (metadata is intact): %v", err)
	}
	defer f.Close()

	// Some read hits the damaged slot and reports typed corruption.
	sawCorrupt := false
	for _, k := range ks {
		if _, err := f.Get(k); errors.Is(err, ErrCorrupt) {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Get(%q) = %v, matches ErrCorrupt but not *CorruptError", k, err)
			}
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("no read surfaced the flipped byte")
	}

	rep, err := f.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("Quarantined = %+v, want exactly the damaged slot", rep.Quarantined)
	}
	if !rep.Lost() || !rep.Quarantined[0].RangeKnown {
		t.Fatalf("report %+v: the lost key range must be known", rep)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("scrubbed file fails invariants: %v", err)
	}
	lost := 0
	for _, k := range ks {
		v, err := f.Get(k)
		switch {
		case err == nil:
			if string(v) != "v:"+k {
				t.Fatalf("surviving Get(%q) = %q", k, v)
			}
		case errors.Is(err, ErrNotFound):
			lost++
		default:
			t.Fatalf("Get(%q) after scrub: %v", k, err)
		}
	}
	if lost == 0 || lost > 8 {
		t.Fatalf("lost %d records, want 1..capacity (one bucket)", lost)
	}
	if got := len(ks) - lost; f.Len() != got {
		t.Fatalf("Len = %d, want %d", f.Len(), got)
	}

	// The quarantine file preserves the damaged bucket's bytes.
	entries, err := ReadQuarantine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Reason == "" || len(entries[0].Raw) == 0 {
		t.Fatalf("quarantine entries = %+v, want one with reason and raw bytes", entries)
	}
	if entries[0].Addr != rep.Quarantined[0].Addr {
		t.Fatalf("quarantined addr %d, report says %d", entries[0].Addr, rep.Quarantined[0].Addr)
	}

	// A second scrub of the now-healthy file is a no-op.
	rep2, err := f.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Lost() {
		t.Fatalf("second scrub lost data: %+v", rep2)
	}

	// The file survives a close/reopen cycle after repair.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Len() != len(ks)-lost {
		t.Fatalf("reopened Len = %d, want %d", g.Len(), len(ks)-lost)
	}

	// With the bucket file gone to zero bytes there is nothing to rebuild
	// from: both the plain open and the salvage must fail.
	dir2, _ := buildDamagedDB(t, 50)
	if err := os.Truncate(filepath.Join(dir2, "buckets.th"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAt(dir2); err == nil {
		t.Fatal("OpenAt accepted a zero-length bucket file")
	}
	if err := os.Remove(filepath.Join(dir2, "meta.th")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAt(dir2); err == nil {
		t.Fatal("salvage of a zero-length bucket file succeeded")
	}

	// A damaged slot header: the flag byte is neither live nor free, or
	// the whole header is zeroed so the slot reads as freed. The open
	// scan must not put the trie's bucket on the free list, or the next
	// split reuses the slot and the damaged bucket's keys silently turn
	// into ErrNotFound while the trie's leaf runs break.
	for _, eng := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{BucketCapacity: 4}},
		{"concurrent", Options{BucketCapacity: 4, Concurrent: true}},
		{"multilevel", Options{BucketCapacity: 4, Variant: TH, PageCapacity: 8}},
	} {
		for _, kind := range []string{"flag", "zero"} {
			t.Run(eng.name+"/"+kind, func(t *testing.T) {
				openDamagedHeader(t, eng.opts, kind)
			})
		}
	}
}

// openDamagedHeader damages slot 0's header of a closed file, reopens
// it and grows it past more splits.
func openDamagedHeader(t *testing.T, opts Options, kind string) {
	dir := filepath.Join(t.TempDir(), "db")
	f, err := CreateAt(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.Uniform(5, 80, 3, 9)
	for _, k := range ks[:40] {
		if err := f.Put(k, []byte("v:"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "buckets.th")
	fs, err := store.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b0, err := fs.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	lost := b0.Keys()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if len(lost) == 0 {
		t.Fatal("slot 0 holds no keys to lose")
	}
	hdr := []byte{0x55}
	if kind == "zero" {
		hdr = make([]byte, 9)
	}
	bf, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bf.WriteAt(hdr, 32); err != nil { // slot 0, past the file header
		t.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := OpenAtWith(dir, Options{Concurrent: opts.Concurrent})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	checkLost := func(when string) {
		t.Helper()
		for _, k := range lost {
			if _, err := g.Get(k); err == nil || errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: Get(%q) of the damaged bucket = %v, want a read error", when, k, err)
			}
		}
	}
	checkLost("after open")
	for _, k := range ks[40:] {
		// Puts into the damaged bucket fail; the rest split as usual.
		_ = g.Put(k, []byte("v:"+k))
	}
	checkLost("after 40 Puts")
	prev, n := "", 0
	err = g.Range("", "", func(k string, _ []byte) bool {
		if n > 0 && k <= prev {
			t.Fatalf("Range yields %q after %q", k, prev)
		}
		prev, n = k, n+1
		return true
	})
	if err == nil {
		t.Fatal("a full Range read past the damaged bucket without an error")
	}
	if opts.PageCapacity > 0 {
		return // Scrub is a single-level repair
	}
	rep, err := g.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	found := rep.Quarantined
	if kind == "zero" {
		found = rep.Vanished
	}
	if len(found) != 1 || found[0].Addr != 0 {
		t.Fatalf("scrub report %+v does not name slot 0", rep)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after Scrub: %v", err)
	}
}
