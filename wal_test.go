package triehash

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"triehash/internal/store"
	"triehash/internal/wal"
	"triehash/internal/workload"
)

// driveWALStream applies a fixed deterministic mutation stream — puts,
// overwrites, deletes — and returns the model of what must be present.
func driveWALStream(t *testing.T, f *File, n int) map[string]string {
	t.Helper()
	keys := workload.Uniform(977, n, 3, 8)
	model := map[string]string{}
	for i, k := range keys {
		v := fmt.Sprintf("v%d", i)
		if err := f.Put(k, []byte(v)); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
		model[k] = v
		if i%7 == 3 {
			prev := keys[i-1]
			if err := f.Delete(prev); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("Delete(%q): %v", prev, err)
			}
			delete(model, prev)
		}
	}
	return model
}

// verifyWALModel checks every model record is present with its value and
// the file holds nothing else.
func verifyWALModel(t *testing.T, f *File, model map[string]string) {
	t.Helper()
	for k, want := range model {
		v, err := f.Get(k)
		if err != nil || string(v) != want {
			t.Fatalf("Get(%q) = %q, %v; want %q", k, v, err, want)
		}
	}
	if f.Len() != len(model) {
		t.Fatalf("file has %d keys, model %d", f.Len(), len(model))
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWALDifferentialByteIdentical drives the same stream through a
// WAL-enabled and a WAL-free file and demands byte-identical bucket and
// metadata files: logging is purely additive, it must not perturb what
// the engines write.
func TestWALDifferentialByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{BucketCapacity: 8}},
		{"concurrent", Options{BucketCapacity: 8, Concurrent: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirs := map[bool]string{}
			for _, withWAL := range []bool{false, true} {
				dir := filepath.Join(t.TempDir(), "db")
				opts := tc.opts
				opts.WAL = withWAL
				f, err := CreateAt(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				model := driveWALStream(t, f, 400)
				verifyWALModel(t, f, model)
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				dirs[withWAL] = dir
			}
			for _, name := range []string{"buckets.th", "meta.th"} {
				a, err := os.ReadFile(filepath.Join(dirs[false], name))
				if err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(filepath.Join(dirs[true], name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Errorf("%s differs between WAL-off (%d bytes) and WAL-on (%d bytes)", name, len(a), len(b))
				}
			}
		})
	}
}

// TestWALDifferentialInMemory checks the in-memory WAL configuration
// stays observationally identical to the plain in-memory file.
func TestWALDifferentialInMemory(t *testing.T) {
	plain, err := Create(Options{BucketCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	logged, err := Create(Options{BucketCapacity: 8, WAL: true, CheckpointBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer logged.Close()
	model := driveWALStream(t, plain, 500)
	model2 := driveWALStream(t, logged, 500)
	if len(model) != len(model2) {
		t.Fatalf("streams diverged: %d vs %d model keys", len(model), len(model2))
	}
	verifyWALModel(t, plain, model)
	verifyWALModel(t, logged, model)
	st, ok := logged.WALStats()
	if !ok {
		t.Fatal("WALStats reports no log on a WAL-enabled file")
	}
	if st.Checkpoints == 0 {
		t.Errorf("2 KiB CheckpointBytes never triggered a checkpoint over %d committed records", st.Committed)
	}
	if st.Size > 64*1024 {
		t.Errorf("log grew to %d bytes despite a 2 KiB checkpoint trigger", st.Size)
	}
}

// copyWALDir snapshots the file's on-disk state mid-flight — the crash
// image: bucket writes that reached the OS, the stale metadata of the
// last checkpoint, and the fsynced log.
func copyWALDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "crashed")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestWALReplayAfterCrash cuts power (by snapshotting the directory
// mid-flight, live file never closed) after a stream of logged
// operations and verifies replay reinstates every committed record over
// the stale checkpoint metadata — for both engines.
func TestWALReplayAfterCrash(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{BucketCapacity: 8, WAL: true}},
		{"concurrent", Options{BucketCapacity: 8, WAL: true, Concurrent: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := filepath.Join(t.TempDir(), "db")
			f, err := CreateAt(live, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			model := driveWALStream(t, f, 300)

			crashed := copyWALDir(t, live)
			g, err := OpenAt(crashed) // no WAL flag: wal.th presence wins
			if err != nil {
				t.Fatal(err)
			}
			if g.walReplayed == 0 {
				t.Error("open of the crash image replayed no records (metadata was stale)")
			}
			verifyWALModel(t, g, model)
			st, ok := g.WALStats()
			if !ok {
				t.Fatal("replayed file did not stay WAL-enabled")
			}
			if st.Size > 64 {
				t.Errorf("log not folded after replay: %d bytes", st.Size)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}

			// Replay idempotence: a second crash image restored the same
			// way converges to the same state.
			again := copyWALDir(t, live)
			h, err := OpenAt(again)
			if err != nil {
				t.Fatal(err)
			}
			verifyWALModel(t, h, model)
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			// And a clean reopen after the fold has nothing to replay.
			i, err := OpenAt(crashed)
			if err != nil {
				t.Fatal(err)
			}
			if i.walReplayed != 0 {
				t.Errorf("clean reopen replayed %d records", i.walReplayed)
			}
			verifyWALModel(t, i, model)
			if err := i.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWALTornTailRepair tears the crash image's log mid-frame and checks
// open truncates the damage, replays the survivors and converges.
func TestWALTornTailRepair(t *testing.T) {
	live := filepath.Join(t.TempDir(), "db")
	f, err := CreateAt(live, Options{BucketCapacity: 8, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	model := driveWALStream(t, f, 200)
	// A sentinel put whose log frame the tear below destroys: the record
	// reached the buckets (the snapshot copies them), so canonicalization
	// keeps it even though its frame never survived.
	if err := f.Put("~torn", []byte("tail")); err != nil {
		t.Fatal(err)
	}
	model["~torn"] = "tail"

	crashed := copyWALDir(t, live)
	if torn := tearLastRecord(t, filepath.Join(crashed, "wal.th")); torn.Key != "~torn" {
		t.Fatalf("the tear destroyed %+v, want the ~torn sentinel's frame", torn)
	}
	g, err := OpenAt(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.walTornTail == "" {
		t.Error("torn tail not reported")
	}
	// The torn record had already reached the buckets (the snapshot copied
	// them), so the full model — torn tail included — must be served.
	verifyWALModel(t, g, model)
}

// tearLastRecord cuts the log file 3 bytes short of its live end, inside
// the last record's frame, and returns the record the cut destroys. The
// live end is where the scan stops: past it lie the end frame and any
// older generation's frames, so a cut there would tear no record.
func tearLastRecord(t *testing.T, walFile string) wal.Record {
	t.Helper()
	data, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	recs, tail, _, err := wal.Scan(data)
	if err != nil || tail.Damaged || len(recs) == 0 {
		t.Fatalf("log before the tear: %d records, tail %+v, err %v", len(recs), tail, err)
	}
	cut := tail.ValidSize - 3
	if err := os.Truncate(walFile, cut); err != nil {
		t.Fatal(err)
	}
	left, torn, _, err := wal.Scan(data[:cut])
	if err != nil || !torn.Damaged || len(left) != len(recs)-1 {
		t.Fatalf("cut at byte %d left %d of %d records (tail %+v, err %v); want the last one torn",
			cut, len(left), len(recs), torn, err)
	}
	return recs[len(recs)-1]
}

// TestWALCheckpointBatchesDirSyncs verifies satellite 4's fsync-ordering
// fix: with the WAL attached, directory syncs happen once per checkpoint,
// not once per metadata install — a put-heavy run must not scale them.
func TestWALCheckpointBatchesDirSyncs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	f, err := CreateAt(dir, Options{BucketCapacity: 8, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	before := store.DirSyncCount()
	keys := workload.Uniform(31, 200, 3, 8)
	for _, k := range keys {
		if err := f.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if d := store.DirSyncCount() - before; d != 0 {
		t.Errorf("%d directory syncs during logged puts; the log should absorb them all", d)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := store.DirSyncCount() - before; d != 1 {
		t.Errorf("%d directory syncs for one checkpoint, want exactly 1", d)
	}
}

// TestWALFreshCreateDiscardsStaleLog checks CreateAt over a directory
// that previously held a WAL file does not replay the old tenant's log.
func TestWALFreshCreateDiscardsStaleLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	f, err := CreateAt(dir, Options{BucketCapacity: 8, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Put("ghost", []byte("old")); err != nil {
		t.Fatal(err)
	}
	// Crash (no Close): wal.th still holds the put.
	fresh, err := CreateAt(dir, Options{BucketCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale log leaked into the fresh file: Get(ghost) err = %v", err)
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale log replayed on reopen: Get(ghost) err = %v", err)
	}
	_ = f // the crashed handle is abandoned, as a real crash would leave it
}

// TestWALBuildInstallsMetaOnce checks a persistent file whose trie is
// built from bucket contents installs its metadata once when a log
// attaches: the attach checkpoint is the install, so one directory sync,
// not a second one for an install just before it.
func TestWALBuildInstallsMetaOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	i := 0
	next := func() (string, []byte, bool) {
		if i == 1000 {
			return "", nil, false
		}
		i++
		return fmt.Sprintf("k%05d", i), []byte("v"), true
	}
	before := store.DirSyncCount()
	f, err := BulkLoad(dir, Options{BucketCapacity: 8, WAL: true}, 1, next)
	if err != nil {
		t.Fatal(err)
	}
	if d := store.DirSyncCount() - before; d != 1 {
		t.Errorf("BulkLoad with WAL made %d directory syncs, want 1", d)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before = store.DirSyncCount()
	g, err := RecoverAt(dir, Options{}) // wal.th attaches the log
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if d := store.DirSyncCount() - before; d != 1 {
		t.Errorf("RecoverAt of a file with wal.th made %d directory syncs, want 1", d)
	}
	if _, ok := g.WALStats(); !ok || g.Len() != 1000 {
		t.Fatalf("recovered file: WAL attached %v, %d keys; want true, 1000", ok, g.Len())
	}
}

// TestWALCleanCloseTrimsLog runs a file through several checkpoints, so
// its log medium holds an end frame and a dead tail past the live log,
// and checks a clean Close trims wal.th to the single checkpoint marker a
// closed log has always held, and the reopen finds no torn tail and
// nothing to replay.
func TestWALCleanCloseTrimsLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	f, err := CreateAt(dir, Options{BucketCapacity: 8, WAL: true, CheckpointBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	model := driveWALStream(t, f, 400)
	st, _ := f.WALStats()
	info, err := os.Stat(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints < 3 || info.Size() <= st.Size {
		t.Fatalf("%d checkpoints, medium %d bytes for a %d-byte live log; want >= 3 and a dead tail",
			st.Checkpoints, info.Size(), st.Size)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	recs, tail, _, err := wal.Scan(data)
	if err != nil || tail.Damaged || tail.ValidSize != int64(len(data)) || len(recs) != 1 || recs[0].Op != wal.OpCheckpoint {
		t.Fatalf("closed log: %d bytes, %d records, tail %+v, err %v; want one marker and nothing past it",
			len(data), len(recs), tail, err)
	}
	g, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.walTornTail != "" || g.walReplayed != 0 {
		t.Fatalf("reopen after a clean close: torn tail %q, %d replayed; want none", g.walTornTail, g.walReplayed)
	}
	verifyWALModel(t, g, model)
}

// TestWALCrashCopyWithDeadTail takes a crash copy mid-run, after several
// checkpoints, while the log medium still holds older generations' frames
// past the live one, and checks the reopen replays exactly the live
// generation's records — none of the dead tail's — and restores the
// model.
func TestWALCrashCopyWithDeadTail(t *testing.T) {
	live := filepath.Join(t.TempDir(), "db")
	f, err := CreateAt(live, Options{BucketCapacity: 8, WAL: true, CheckpointBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	keys := workload.Uniform(59, 600, 3, 8)
	model := map[string]string{}
	st, _ := f.WALStats()
	first := st.Checkpoints  // the attach checkpoint
	since, ckpts := 0, first // records logged since the last checkpoint
	for i, k := range keys {
		v := fmt.Sprintf("v%d", i)
		if err := f.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
		since++
		if st, _ := f.WALStats(); st.Checkpoints != ckpts {
			since, ckpts = 0, st.Checkpoints
		}
		if ckpts >= first+3 && since == 5 {
			break
		}
	}
	st, _ = f.WALStats()
	if ckpts < first+3 || since != 5 {
		t.Fatalf("stream ended at %d checkpoints, %d records since the last", ckpts-first, since)
	}
	crashed := copyWALDir(t, live)
	data, err := os.ReadFile(walPath(crashed))
	if err != nil {
		t.Fatal(err)
	}
	recs, tail, _, err := wal.Scan(data)
	if err != nil || tail.Damaged || tail.ValidSize != st.Size || int64(len(data)) <= st.Size {
		t.Fatalf("crash copy's log: %d bytes, tail %+v, err %v; want a clean scan to the %d-byte live log and a dead tail past it",
			len(data), tail, err, st.Size)
	}
	if len(recs) != since+1 || recs[0].Op != wal.OpCheckpoint {
		t.Fatalf("crash copy's log scans %d records, want the marker and the %d since it", len(recs), since)
	}
	g, err := OpenAt(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.walReplayed != since || g.walTornTail != "" {
		t.Fatalf("reopen replayed %d records (torn tail %q), want exactly the live generation's %d",
			g.walReplayed, g.walTornTail, since)
	}
	verifyWALModel(t, g, model)
}
