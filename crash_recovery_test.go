package triehash

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

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
}
