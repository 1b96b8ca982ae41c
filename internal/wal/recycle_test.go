package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"triehash/internal/format"
	"triehash/internal/store"
)

// countingMedium is a CrashDisk log file that counts the truncations it
// receives.
type countingMedium struct {
	*store.CrashFile
	truncates int
}

func (m *countingMedium) Truncate(size int64) error {
	m.truncates++
	return m.CrashFile.Truncate(size)
}

// mediumLen returns a log medium's length.
func mediumLen(t *testing.T, m Medium) int64 {
	t.Helper()
	n, err := m.Seek(0, io.SeekEnd)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCheckpointRecyclesMedium is the recycled log's count-based gate:
// across six checkpoints on a FileDevice over a CrashDisk, the log medium
// is never truncated after open — every generation overwrites the last
// in place — and its length stays within one checkpoint interval plus one
// batch of frames plus one end frame. A clean Close then trims it, once,
// to the live log.
func TestCheckpointRecyclesMedium(t *testing.T) {
	bothVersions(t, func(t *testing.T, v format.Version) {
		disk := &store.CrashDisk{}
		m := &countingMedium{CrashFile: disk.Log()}
		dev, err := OpenMediumDevice(m)
		if err != nil {
			t.Fatal(err)
		}
		l, _, _, err := Open(dev, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		const ckptBytes, batch = 1024, 8
		endFrame := int64(len(appendFrame(nil, Record{LSN: math.MaxUint64, Op: OpEnd}, v)))
		var maxFrame int64
		key := 0
		for checkpoints := 0; checkpoints < 6; {
			var last uint64
			for i := 0; i < batch; i++ {
				before := l.Size()
				lsn, err := l.Append(OpPut, fmt.Sprintf("key-%06d", key), make([]byte, key%40))
				if err != nil {
					t.Fatal(err)
				}
				maxFrame = max(maxFrame, l.Size()-before)
				key++
				last = lsn
			}
			if err := l.Commit(last); err != nil {
				t.Fatal(err)
			}
			if l.Size() >= ckptBytes {
				if err := l.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				checkpoints++
			}
			if n, limit := mediumLen(t, m), ckptBytes+batch*maxFrame+endFrame; n > limit {
				t.Fatalf("after %d checkpoints the medium is %d bytes, over the %d-byte bound", checkpoints, n, limit)
			}
		}
		if m.truncates != 0 {
			t.Fatalf("the log medium was truncated %d times across the checkpoints, want 0", m.truncates)
		}
		live := l.Size()
		if mediumLen(t, m) <= live {
			t.Fatalf("medium %d bytes for a %d-byte live log: the run left no dead tail to trim", mediumLen(t, m), live)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if n := mediumLen(t, m); m.truncates != 1 || n != live {
			t.Fatalf("close: %d truncations, medium %d bytes; want 1 trim to the %d-byte live log", m.truncates, n, live)
		}
	})
}

// TestOpenResumesAtLiveEnd reopens a recycled log as a crash leaves it —
// past the live log the medium holds the end frame and a longer, older
// generation — and checks the open does not truncate it and appends
// resume at the live end, over the end frame, where a rescan finds them.
func TestOpenResumesAtLiveEnd(t *testing.T) {
	bothVersions(t, func(t *testing.T, v format.Version) {
		disk := &store.CrashDisk{}
		dev, err := OpenMediumDevice(disk.Log())
		if err != nil {
			t.Fatal(err)
		}
		l, _, _, err := Open(dev, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for i := 0; i < 22; i++ {
			if i == 20 {
				if err := l.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			lsn, err := l.Append(OpPut, fmt.Sprintf("k%02d", i), []byte("value"))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(lsn); err != nil {
				t.Fatal(err)
			}
		}
		live := l.Size()
		m := &countingMedium{CrashFile: disk.PowerCut(disk.Journal()).Log()}
		dev2, err := OpenMediumDevice(m)
		if err != nil {
			t.Fatal(err)
		}
		l2, recs, tail, err := Open(dev2, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if tail.Damaged || tail.ValidSize != live || dev2.Size() != live || len(recs) != 3 || m.truncates != 0 {
			t.Fatalf("reopen: %d records, tail %+v, head %d, %d truncations; want the marker and 2 records, clean to byte %d, untruncated",
				len(recs), tail, dev2.Size(), m.truncates, live)
		}
		lsn, err := l2.Append(OpPut, "after", []byte("reopen"))
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.Commit(lsn); err != nil {
			t.Fatal(err)
		}
		got, tail, _, err := Scan(mustContents(t, dev2))
		if err != nil || tail.Damaged || len(got) != 4 || got[3].Key != "after" || got[3].LSN != lsn {
			t.Fatalf("after the reopened append: %d records, tail %+v, err %v; want the append as the 4th", len(got), tail, err)
		}
	})
}

// TestScanStopsAtStaleGeneration tears a checkpoint so that its header
// and marker land but its end frame does not. The two generations' first
// markers have the same width, so the bytes after the new marker are the
// previous generation's records, on a frame boundary, each with a valid
// checksum: only the LSN rule keeps the scan from replaying them over
// state the checkpoint already folded.
func TestScanStopsAtStaleGeneration(t *testing.T) {
	bothVersions(t, func(t *testing.T, v format.Version) {
		disk := &store.CrashDisk{}
		dev, err := OpenMediumDevice(disk.Log())
		if err != nil {
			t.Fatal(err)
		}
		l, _, _, err := Open(dev, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := l.Checkpoint(); err != nil { // marker LSN 1, fold 0
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ { // LSNs 2..51
			lsn, err := l.Append(OpPut, fmt.Sprintf("k%02d", i), []byte("value"))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(lsn); err != nil {
				t.Fatal(err)
			}
		}
		before := disk.Journal()
		if err := l.Checkpoint(); err != nil { // marker LSN 52, fold 51: the same width
			t.Fatal(err)
		}
		landed := l.Size() // header and marker
		whole := mustContents(t, dev)
		oldDev, err := OpenMediumDevice(disk.PowerCut(before).Log())
		if err != nil {
			t.Fatal(err)
		}
		old := mustContents(t, oldDev)
		if recs, tail, _, err := Scan(old); err != nil || tail.Damaged || len(recs) != 51 {
			t.Fatalf("first generation: %d records, tail %+v, err %v; want 51 clean", len(recs), tail, err)
		}
		torn := append(append([]byte(nil), whole[:landed]...), old[landed:]...)
		recs, tail, _, err := Scan(torn)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Op != OpCheckpoint || recs[0].LSN != 52 {
			t.Fatalf("torn checkpoint scanned %d records (first %+v), want the new marker alone", len(recs), recs[0])
		}
		if !tail.Damaged || tail.ValidSize != landed || !strings.HasPrefix(tail.Reason, "lsn break") {
			t.Fatalf("torn checkpoint tail %+v, want an lsn break at byte %d", tail, landed)
		}
	})
}

// sameRecord reports whether a scanned record is the one written.
func sameRecord(a, b Record) bool {
	return a.LSN == b.LSN && a.Op == b.Op && a.Key == b.Key && bytes.Equal(a.Value, b.Value) && a.CheckpointLSN == b.CheckpointLSN
}

// FuzzScanRecycled writes two log generations on one FileDevice over a
// CrashDisk — the second over the first, after a checkpoint — and cuts
// the image at a journal position inside the second, with the in-flight
// write optionally torn, bit-flipped or zeroed. Each fuzzer byte of gen1
// and gen2 is one record: bit 7 picks delete over put, the low bits the
// key and the value length, so frames of the two generations align or
// straddle as the bytes fall. Scan must not panic or fail (except on a
// flip of the header's version byte, which reads as a future version),
// every record it returns must be the one written at its LSN, the LSNs
// must be consecutive, and once the second checkpoint's write has landed
// whole no returned record may predate its marker.
func FuzzScanRecycled(f *testing.F) {
	f.Add([]byte("\x05\x10\x20\x2f"), []byte("\x01"), true, uint16(1), uint8(0))
	f.Add([]byte("abcdefghij"), []byte("abc"), false, uint16(2), uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 30), []byte{7, 7}, true, uint16(0), uint8(2))
	f.Add([]byte("\x90\x10\x90\x10"), []byte("\x10\x90"), false, uint16(3), uint8(3))
	f.Fuzz(func(t *testing.T, gen1, gen2 []byte, v2 bool, at uint16, kind uint8) {
		v := format.V1
		if v2 {
			v = format.V2
		}
		gen1, gen2 = gen1[:min(len(gen1), 64)], gen2[:min(len(gen2), 64)]
		disk := &store.CrashDisk{}
		dev, err := OpenMediumDevice(disk.Log())
		if err != nil {
			t.Fatal(err)
		}
		l, _, _, err := Open(dev, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		written := map[uint64]Record{}
		write := func(ops []byte) {
			for _, b := range ops {
				r := Record{Op: OpPut, Key: fmt.Sprintf("k%d", b%16), Value: bytes.Repeat([]byte{b}, int(b%48))}
				if b&0x80 != 0 {
					r.Op, r.Value = OpDelete, nil
				}
				lsn, err := l.Append(r.Op, r.Key, r.Value)
				if err != nil {
					t.Fatal(err)
				}
				r.LSN = lsn
				written[lsn] = r
			}
		}
		write(gen1)
		ckpt := disk.Journal() // the journal index of the checkpoint's write
		marker := l.nextLSN
		written[marker] = Record{LSN: marker, Op: OpCheckpoint, CheckpointLSN: marker - 1}
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		write(gen2)
		k := ckpt + int(at)%(disk.Journal()-ckpt+1)
		img := disk.PowerCut(k)
		damage := store.CorruptKind(int(kind%4) - 1)
		if damage >= 0 {
			img, _ = disk.PowerCutDamaged(k, damage, int64(at)*7919+int64(kind))
		}
		imgDev, err := OpenMediumDevice(img.Log())
		if err != nil {
			t.Fatal(err)
		}
		recs, _, _, err := Scan(mustContents(t, imgDev))
		if err != nil {
			var uve *format.UnknownVersionError
			if damage == store.CorruptFlip && k == ckpt && errors.As(err, &uve) {
				return
			}
			t.Fatalf("cut %d (kind %v): %v", k, damage, err)
		}
		for i, r := range recs {
			if w, ok := written[r.LSN]; !ok || !sameRecord(r, w) {
				t.Fatalf("cut %d (kind %v): record %d is %+v, not the one written at LSN %d (%+v)", k, damage, i, r, r.LSN, w)
			}
			if i > 0 && r.LSN != recs[i-1].LSN+1 {
				t.Fatalf("cut %d (kind %v): LSN %d follows %d", k, damage, r.LSN, recs[i-1].LSN)
			}
			if k > ckpt && r.LSN < marker {
				t.Fatalf("cut %d (kind %v): record LSN %d predates the landed marker %d", k, damage, r.LSN, marker)
			}
		}
	})
}

// discardDevice is a Device whose appends go nowhere, so an allocation
// count sees only the Log's own work.
type discardDevice struct{ MemDevice }

func (*discardDevice) Append(p []byte, live int) error { return nil }

// TestAppendAllocs checks an append — its frame and the end frame behind
// it, built into the Log's reused buffer — allocates nothing once that
// buffer has grown, in both framing versions.
func TestAppendAllocs(t *testing.T) {
	bothVersions(t, func(t *testing.T, v format.Version) {
		l, _, _, err := Open(&discardDevice{}, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		value := make([]byte, 100)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := l.Append(OpPut, "some-key", value); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("Append made %.1f allocations per call, want 0", n)
		}
	})
}
