package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triehash/internal/format"
)

// bothVersions runs f once per log framing version.
func bothVersions(t *testing.T, f func(t *testing.T, v format.Version)) {
	for _, v := range []format.Version{format.V1, format.V2} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) { f(t, v) })
	}
}

// logPrefix returns the bytes a version's log image starts with (v1 logs
// are headerless).
func logPrefix(v format.Version) []byte {
	if v >= format.V2 {
		return appendLogHeader(nil, v)
	}
	return nil
}

// TestScanRoundTrip frames a mixed record sequence and scans it back, in
// both framing versions.
func TestScanRoundTrip(t *testing.T) {
	bothVersions(t, func(t *testing.T, v format.Version) {
		want := []Record{
			{LSN: 1, Op: OpPut, Key: "alpha", Value: []byte("v1")},
			{LSN: 2, Op: OpDelete, Key: "alpha"},
			{LSN: 3, Op: OpCheckpoint, CheckpointLSN: 2},
			{LSN: 4, Op: OpPut, Key: "", Value: nil}, // empty key and value are legal
		}
		buf := logPrefix(v)
		for _, r := range want {
			buf = appendFrame(buf, r, v)
		}
		got, tail, ver, err := Scan(buf)
		if err != nil {
			t.Fatal(err)
		}
		if ver != v {
			t.Fatalf("scanned version %d, want %d", ver, v)
		}
		if tail.Damaged {
			t.Fatalf("clean log scanned as damaged: %s", tail.Reason)
		}
		if tail.ValidSize != int64(len(buf)) {
			t.Fatalf("ValidSize %d, want %d", tail.ValidSize, len(buf))
		}
		if len(got) != len(want) {
			t.Fatalf("scanned %d records, want %d", len(got), len(want))
		}
		for i, r := range got {
			w := want[i]
			if r.LSN != w.LSN || r.Op != w.Op || r.Key != w.Key || !bytes.Equal(r.Value, w.Value) || r.CheckpointLSN != w.CheckpointLSN {
				t.Errorf("record %d: got %+v, want %+v", i, r, w)
			}
		}
	})
}

// TestScanTornTail verifies that every proper prefix cut of a frame is
// detected as tail damage with the preceding records intact, and that a
// flipped byte anywhere in the last frame fails its checksum — in both
// framing versions.
func TestScanTornTail(t *testing.T) {
	bothVersions(t, func(t *testing.T, v format.Version) {
		buf := logPrefix(v)
		buf = appendFrame(buf, Record{LSN: 1, Op: OpPut, Key: "k1", Value: []byte("value-1")}, v)
		whole := int64(len(buf))
		buf = appendFrame(buf, Record{LSN: 2, Op: OpPut, Key: "k2", Value: []byte("value-2")}, v)

		for cut := whole + 1; cut < int64(len(buf)); cut++ {
			recs, tail, _, err := Scan(buf[:cut])
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || recs[0].LSN != 1 {
				t.Fatalf("cut %d: got %d records, want the 1 whole one", cut, len(recs))
			}
			if !tail.Damaged || tail.ValidSize != whole {
				t.Fatalf("cut %d: tail %+v, want damaged with ValidSize %d", cut, tail, whole)
			}
		}
		for i := whole; i < int64(len(buf)); i++ {
			flipped := append([]byte(nil), buf...)
			flipped[i] ^= 0x40
			recs, tail, _, err := Scan(flipped)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || !tail.Damaged || tail.ValidSize != whole {
				t.Fatalf("flip at %d: %d records, tail %+v", i, len(recs), tail)
			}
		}
		// A zeroed tail chunk reads as a zero-length frame: damaged, not EOF.
		zeroed := append(append([]byte(nil), buf[:whole]...), make([]byte, 32)...)
		if recs, tail, _, err := Scan(zeroed); err != nil || len(recs) != 1 || !tail.Damaged {
			t.Fatalf("zeroed tail: %d records, tail %+v, err %v", len(recs), tail, err)
		}
	})
}

// TestScanUnknownVersion verifies a future header version refuses to scan
// with a typed error instead of reading as repairable damage.
func TestScanUnknownVersion(t *testing.T) {
	img := appendLogHeader(nil, format.V2)
	img[4] = 9 // a version this build does not know
	img = append(img, appendFrame(nil, Record{LSN: 1, Op: OpPut, Key: "k"}, format.V2)...)
	_, _, _, err := Scan(img)
	var uve *format.UnknownVersionError
	if !errors.As(err, &uve) {
		t.Fatalf("Scan error %v, want *format.UnknownVersionError", err)
	}
	if uve.Surface != "wal" || uve.Version != 9 {
		t.Fatalf("error detail %+v", uve)
	}
	// A truncated header (crash while writing the very first bytes of a v2
	// log) is ordinary tail damage: nothing durable is lost.
	short := appendLogHeader(nil, format.V2)[:5]
	if _, tail, _, err := Scan(short); err != nil || !tail.Damaged {
		t.Fatalf("truncated header: tail %+v, err %v", tail, err)
	}
}

// TestCheckpointUpgradesFormat opens a v1 image with a v2 want and checks
// the log keeps v1 framing until the checkpoint rewrites it from byte
// zero in v2.
func TestCheckpointUpgradesFormat(t *testing.T) {
	dev := NewMem()
	img := appendFrame(nil, Record{LSN: 1, Op: OpPut, Key: "a", Value: []byte("x")}, format.V1)
	if err := dev.Append(img, len(img)); err != nil {
		t.Fatal(err)
	}
	l, recs, _, err := Open(dev, format.V2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 1 || l.Format() != format.V1 {
		t.Fatalf("opened %d records at v%d, want 1 at v1", len(recs), l.Format())
	}
	// Appends before the upgrade must stay v1: mixed frames would misparse.
	lsn, err := l.Append(OpPut, "b", []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if recs, _, ver, err := Scan(mustContents(t, dev)); err != nil || ver != format.V1 || len(recs) != 2 {
		t.Fatalf("pre-upgrade image: %d records v%d (err %v), want 2 at v1", len(recs), ver, err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if l.Format() != format.V2 {
		t.Fatalf("post-checkpoint format v%d, want v2", l.Format())
	}
	recs2, tail, ver, err := Scan(mustContents(t, dev))
	if err != nil || tail.Damaged {
		t.Fatalf("post-upgrade scan: tail %+v, err %v", tail, err)
	}
	if ver != format.V2 || len(recs2) != 1 || recs2[0].Op != OpCheckpoint || recs2[0].LSN != 3 {
		t.Fatalf("post-upgrade image: %d records v%d, first %+v", len(recs2), ver, recs2[0])
	}
}

// TestOpenRepairsTornTail checks Open truncates a damaged tail and that
// LSNs continue from the surviving records.
func TestOpenRepairsTornTail(t *testing.T) {
	dev := NewMem()
	var img []byte
	img = appendFrame(img, Record{LSN: 7, Op: OpPut, Key: "a", Value: []byte("x")}, format.V1)
	valid := int64(len(img))
	img = appendFrame(img, Record{LSN: 8, Op: OpPut, Key: "b", Value: []byte("y")}, format.V1)
	if err := dev.Append(img[:valid+5], int(valid)+5); err != nil { // torn mid-frame
		t.Fatal(err)
	}
	l, recs, tail, err := Open(dev, format.V2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 1 || recs[0].LSN != 7 {
		t.Fatalf("recovered %d records, want the 1 whole one", len(recs))
	}
	if !tail.Damaged {
		t.Fatal("torn tail not reported")
	}
	if dev.Size() != valid {
		t.Fatalf("device not truncated: %d bytes, want %d", dev.Size(), valid)
	}
	lsn, err := l.Append(OpPut, "c", []byte("z"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 8 {
		t.Fatalf("next LSN %d, want 8 (continue after survivor)", lsn)
	}
}

// slowSyncDev delays Sync so a commit group can accumulate, and counts
// syncs.
type slowSyncDev struct {
	MemDevice
	syncs   atomic.Int64
	delay   time.Duration
	syncErr atomic.Value // error to fail Sync with
}

func (d *slowSyncDev) Sync() error {
	d.syncs.Add(1)
	if v := d.syncErr.Load(); v != nil {
		return v.(error)
	}
	time.Sleep(d.delay)
	return nil
}

// TestGroupCommitBatches runs many concurrent Append+Commit against a
// slow-sync device and verifies they shared fsyncs.
func TestGroupCommitBatches(t *testing.T) {
	dev := &slowSyncDev{delay: 2 * time.Millisecond}
	l, _, _, err := Open(dev, format.V2, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := l.Append(OpPut, fmt.Sprintf("w%d-%d", w, i), []byte("v"))
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.Commit(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Committed != writers*per {
		t.Fatalf("committed %d records, want %d", st.Committed, writers*per)
	}
	if st.DurableLSN != writers*per {
		t.Fatalf("durable LSN %d, want %d", st.DurableLSN, writers*per)
	}
	// With 8 writers against a 2ms fsync, batching must beat one fsync per
	// record by a wide margin; 2x is a very conservative floor.
	if st.Fsyncs*2 > st.Committed {
		t.Errorf("group commit not batching: %d fsyncs for %d commits", st.Fsyncs, st.Committed)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, tail, _, err := Scan(mustContents(t, dev))
	if err != nil {
		t.Fatal(err)
	}
	if tail.Damaged || len(recs) != writers*per {
		t.Fatalf("log has %d records (tail %+v), want %d clean", len(recs), tail, writers*per)
	}
}

// TestCheckpointTruncatesAndChainsLSN folds an in-memory log, whose
// rewind truncates, and verifies the restart record carries the sequence
// across the checkpoint and a reopen.
func TestCheckpointTruncatesAndChainsLSN(t *testing.T) {
	dev := NewMem()
	l, _, _, err := Open(dev, format.V2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		lsn, err := l.Append(OpPut, fmt.Sprintf("k%d", i), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(lsn); err != nil {
			t.Fatal(err)
		}
	}
	before := dev.Size()
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if dev.Size() >= before {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d bytes", before, dev.Size())
	}
	recs, tail, _, err := Scan(mustContents(t, dev))
	if err != nil {
		t.Fatal(err)
	}
	if tail.Damaged || len(recs) != 1 || recs[0].Op != OpCheckpoint {
		t.Fatalf("post-checkpoint log: %d records, tail %+v", len(recs), tail)
	}
	if recs[0].LSN != 11 || recs[0].CheckpointLSN != 10 {
		t.Fatalf("checkpoint record LSN %d / fold %d, want 11 / 10", recs[0].LSN, recs[0].CheckpointLSN)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs2, _, err := Open(dev, format.V2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs2) != 1 {
		t.Fatalf("reopen scanned %d records, want 1", len(recs2))
	}
	if lsn, err := l2.Append(OpPut, "next", nil); err != nil || lsn != 12 {
		t.Fatalf("post-reopen LSN %d (err %v), want 12", lsn, err)
	}
}

// TestSyncErrorIsSticky verifies a failed fsync poisons every waiter, and
// later commits fail fast instead of hanging.
func TestSyncErrorIsSticky(t *testing.T) {
	dev := &slowSyncDev{}
	boom := errors.New("medium gone")
	l, _, _, err := Open(dev, format.V2, nil)
	if err != nil {
		t.Fatal(err)
	}
	dev.syncErr.Store(boom)
	lsn, err := l.Append(OpPut, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); !errors.Is(err, boom) {
		t.Fatalf("Commit error %v, want %v", err, boom)
	}
	done := make(chan error, 1)
	go func() { done <- l.Commit(lsn) }()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("second Commit error %v, want %v", err, boom)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Commit hung on a dead log")
	}
}

// TestFileDevice exercises the production device end to end: an append
// leaves its end frame past the head and the next append overwrites it, a
// rewind moves the head over bytes the medium keeps, and the medium
// persists across reopen and truncation. "#" stands in for an end frame.
func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	d, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append([]byte("hello #"), 6); err != nil {
		t.Fatal(err)
	}
	if err := d.Append([]byte("world#"), 5); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := mustContents(t, d); string(got) != "hello world#" || d.Size() != 11 {
		t.Fatalf("contents %q, size %d; want %q, 11", got, d.Size(), "hello world#")
	}
	if err := d.Rewind(0); err != nil {
		t.Fatal(err)
	}
	if got := mustContents(t, d); string(got) != "hello world#" || d.Size() != 0 {
		t.Fatalf("after rewind: contents %q, size %d; the medium must keep its bytes", got, d.Size())
	}
	if err := d.Append([]byte("HEL#"), 3); err != nil {
		t.Fatal(err)
	}
	if got := mustContents(t, d); string(got) != "HEL#o world#" || d.Size() != 3 {
		t.Fatalf("after rewind+append: contents %q, size %d", got, d.Size())
	}
	if err := d.Rewind(13); err == nil {
		t.Fatal("rewind past the medium's end succeeded")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Size() != 12 {
		t.Fatalf("reopened head %d, want 12 (the medium's end, until the opener rewinds)", d2.Size())
	}
	if err := d2.TruncateTo(5); err != nil {
		t.Fatal(err)
	}
	if err := d2.Append([]byte("!#"), 1); err != nil {
		t.Fatal(err)
	}
	if got := mustContents(t, d2); string(got) != "HEL#o!#" || d2.Size() != 6 {
		t.Fatalf("after truncate+append: contents %q, size %d", got, d2.Size())
	}
}

func mustContents(t *testing.T, d Device) []byte {
	t.Helper()
	data, err := d.Contents()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
