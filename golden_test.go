package triehash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"triehash/internal/format"
	"triehash/internal/store"
)

// goldenV1Dir holds a committed version-1 file: meta, buckets and WAL all
// in the fixed-width v1 layout, written by a build pinned to
// FormatVersion 1 and closed cleanly. It is the compatibility contract
// for the v2 rollout — every future build must open it, read every key,
// and upgrade it surface by surface without data loss.
const goldenV1Dir = "internal/core/testdata/golden_v1"

// goldenRecords is the fixture's exact content. goldenDeleted was
// inserted and then deleted before the fixture was closed, so tombstone
// handling is baked into the committed bytes.
func goldenRecords() (keys []string, deleted string) {
	for i := 1; i <= 12; i++ {
		keys = append(keys, fmt.Sprintf("user:%04d", i))
	}
	keys = append(keys, "ash", "birch", "cedar", "elm", "fir", "hazel")
	return keys, "derry"
}

func goldenValue(k string) []byte { return []byte("value-" + k) }

// goldenOptions is the configuration the fixture was generated with:
// small buckets and slots so the committed file holds several pages and
// the byte-budget gate is armed, WAL on so all three surfaces are
// present.
func goldenOptions() Options {
	return Options{BucketCapacity: 4, SlotBytes: 256, WAL: true, FormatVersion: 1}
}

// TestGoldenV1Regenerate rewrites the committed fixture. It never runs in
// a normal test sweep: set GOLDEN_REGEN=1 only when the generation recipe
// itself changes, and review the resulting byte diff — silently
// regenerating would defeat the point of a compatibility fixture.
func TestGoldenV1Regenerate(t *testing.T) {
	if os.Getenv("GOLDEN_REGEN") == "" {
		t.Skip("set GOLDEN_REGEN=1 to regenerate the committed v1 fixture")
	}
	if err := os.RemoveAll(goldenV1Dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(goldenV1Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := CreateAt(goldenV1Dir, goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	keys, deleted := goldenRecords()
	for _, k := range keys {
		if err := f.Put(k, goldenValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Put(deleted, goldenValue(deleted)); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(deleted); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// copyGoldenV1 copies the committed fixture into a fresh temp dir so a
// test can open (and mutate) it freely.
func copyGoldenV1(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ents, err := os.ReadDir(goldenV1Dir)
	if err != nil {
		t.Fatalf("reading the committed fixture (regenerate with GOLDEN_REGEN=1): %v", err)
	}
	for _, e := range ents {
		blob, err := os.ReadFile(filepath.Join(goldenV1Dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// verifyGoldenContent checks every fixture record against f.
func verifyGoldenContent(t *testing.T, f *File) {
	t.Helper()
	keys, deleted := goldenRecords()
	for _, k := range keys {
		v, err := f.Get(k)
		if err != nil {
			t.Fatalf("get %q: %v", k, err)
		}
		if string(v) != string(goldenValue(k)) {
			t.Fatalf("get %q = %q, want %q", k, v, goldenValue(k))
		}
	}
	if _, err := f.Get(deleted); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get deleted %q: %v, want ErrNotFound", deleted, err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestGoldenV1Open is the compatibility gate: the committed v1 file must
// open under the current (v2-default) build with every record intact.
func TestGoldenV1Open(t *testing.T) {
	dir := copyGoldenV1(t)
	f, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	verifyGoldenContent(t, f)
	if got := f.Stats().FormatVersion; got != int(format.Default) {
		t.Fatalf("Stats().FormatVersion = %d, want the default %d", got, format.Default)
	}
	// Nothing was rewritten yet, so every committed bucket page is still v1.
	rep, err := f.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesV1 == 0 {
		t.Fatalf("fixture pages report v1=%d v2=%d, want v1 pages present", rep.PagesV1, rep.PagesV2)
	}
}

// TestGoldenV1UpgradeAtCheckpoint reopens the fixture without a version
// pin and drives one write and one checkpoint: the meta and WAL surfaces
// must flip to v2 immediately, bucket pages upgrade only as they are
// rewritten (a mixed-version file is the designed intermediate state),
// and no record is lost along the way.
func TestGoldenV1UpgradeAtCheckpoint(t *testing.T) {
	dir := copyGoldenV1(t)
	f, err := OpenAtWith(dir, Options{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Put("ivy", []byte("value-ivy")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	meta, err := os.ReadFile(filepath.Join(dir, "meta.th"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(meta[4:]); v != uint32(format.V2) {
		t.Fatalf("meta version after checkpoint = %d, want %d", v, format.V2)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "wal.th"))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) < 5 || string(wal[:4]) != "TWAL" || wal[4] != byte(format.V2) {
		t.Fatalf("wal after checkpoint does not open with a v2 header: % x", wal[:min(8, len(wal))])
	}

	f, err = OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	verifyGoldenContent(t, f)
	if v, err := f.Get("ivy"); err != nil || string(v) != "value-ivy" {
		t.Fatalf("get ivy = %q, %v", v, err)
	}
	rep, err := f.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesV2 == 0 {
		t.Fatalf("pages after one rewrite: v1=%d v2=%d, want at least one v2 page", rep.PagesV1, rep.PagesV2)
	}
}

// TestGoldenV1PinStaysV1 reopens the fixture pinned to FormatVersion 1:
// every surface must keep the v1 layout across writes and checkpoints —
// the downgrade-compatibility escape hatch for a rollback.
func TestGoldenV1PinStaysV1(t *testing.T) {
	dir := copyGoldenV1(t)
	f, err := OpenAtWith(dir, Options{WAL: true, FormatVersion: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Put("ivy", []byte("value-ivy")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := f.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesV2 != 0 {
		t.Fatalf("pinned file wrote %d v2 pages", rep.PagesV2)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(dir, "meta.th"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(meta[4:]); v != uint32(format.V1) {
		t.Fatalf("pinned meta version = %d, want %d", v, format.V1)
	}
	if wal, err := os.ReadFile(filepath.Join(dir, "wal.th")); err != nil {
		t.Fatal(err)
	} else if len(wal) >= 4 && string(wal[:4]) == "TWAL" {
		t.Fatalf("pinned wal gained a v2 header")
	}
}

// TestGoldenV1FutureMetaRefused byte-edits the fixture's meta to a
// version this build does not know (re-sealing the checksum, so the edit
// reads as a future build's work, not corruption). OpenAt must refuse
// with the typed error — and specifically must NOT salvage, which would
// rebuild and overwrite a file that is not damaged.
func TestGoldenV1FutureMetaRefused(t *testing.T) {
	dir := copyGoldenV1(t)
	path := filepath.Join(dir, "meta.th")
	meta, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(meta[4:], 9)
	body := meta[:len(meta)-4]
	binary.LittleEndian.PutUint32(meta[len(meta)-4:], crc32.ChecksumIEEE(body))
	if err := os.WriteFile(path, meta, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, "buckets.th"))
	if err != nil {
		t.Fatal(err)
	}

	_, err = OpenAt(dir)
	var unknown *format.UnknownVersionError
	if !errors.As(err, &unknown) {
		t.Fatalf("open future-version meta: %v, want *format.UnknownVersionError", err)
	}
	if unknown.Surface != "meta" || unknown.Version != 9 {
		t.Fatalf("unknown version error = %+v, want meta version 9", unknown)
	}
	// Refusal must be read-only: no salvage, no rewrite of any surface.
	after, err := os.ReadFile(filepath.Join(dir, "buckets.th"))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("refused open modified buckets.th")
	}
	if again, err := os.ReadFile(path); err != nil || string(again) != string(meta) {
		t.Fatalf("refused open modified meta.th (err %v)", err)
	}
}

// TestFormatDifferential grows one file per format version (and, per
// version, one per engine, each with span tracing off and on) through an
// identical operation stream and demands: observationally identical
// content across all eight, buckets.th byte-identical between the serial
// and concurrent engine at the same version and between every traced
// build and its untraced twin, and a strictly smaller v2 bucket file —
// the compact encoding must change the bytes, not the semantics, and
// tracing must change neither.
func TestFormatDifferential(t *testing.T) {
	type build struct {
		version    int
		concurrent bool
		spans      bool
	}
	var builds []build
	for _, spans := range []bool{false, true} {
		for _, v := range []int{1, 2} {
			builds = append(builds, build{v, false, spans}, build{v, true, spans})
		}
	}
	keys := make([]string, 0, 400)
	for i := 0; i < 400; i++ {
		keys = append(keys, fmt.Sprintf("user:%04d", i*31%400))
	}
	dirs := map[build]string{}
	for _, b := range builds {
		dir := t.TempDir()
		dirs[b] = dir
		f, err := CreateAt(dir, Options{
			BucketCapacity: 8, SlotBytes: 256,
			FormatVersion: b.version, Concurrent: b.concurrent,
		})
		if err != nil {
			t.Fatal(err)
		}
		if b.spans {
			f.Observe(NewObserver(ObserverConfig{Spans: true}))
		}
		for i, k := range keys {
			val := make([]byte, i%29)
			for j := range val {
				val[j] = byte('a' + i%26)
			}
			if err := f.Put(k, val); err != nil {
				t.Fatalf("%+v: put %q: %v", b, k, err)
			}
			if i%5 == 4 {
				if err := f.Delete(keys[i-2]); err != nil {
					t.Fatalf("%+v: delete %q: %v", b, keys[i-2], err)
				}
			}
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("%+v: invariants: %v", b, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// All eight must serve the same records.
	var want map[string]string
	for _, b := range builds {
		f, err := OpenAt(dirs[b])
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		err = f.Range("", "", func(k string, v []byte) bool {
			got[k] = string(v)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%+v holds %d records, want %d", b, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%+v: %q = %q, want %q", b, k, got[k], v)
			}
		}
	}

	read := func(b build) []byte {
		blob, err := os.ReadFile(filepath.Join(dirs[b], "buckets.th"))
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for _, v := range []int{1, 2} {
		serial, conc := read(build{v, false, false}), read(build{v, true, false})
		if string(serial) != string(conc) {
			t.Fatalf("v%d: serial and concurrent buckets.th differ (%d vs %d bytes)", v, len(serial), len(conc))
		}
	}
	for _, b := range builds {
		if !b.spans {
			continue
		}
		untraced := build{b.version, b.concurrent, false}
		if traced, plain := read(b), read(untraced); string(traced) != string(plain) {
			t.Fatalf("%+v: buckets.th differs from the untraced build's (%d vs %d bytes)", b, len(traced), len(plain))
		}
	}
	if v1, v2 := len(read(build{1, false, false})), len(read(build{2, false, false})); v2 >= v1 {
		t.Fatalf("v2 buckets.th is %d bytes, not smaller than v1's %d", v2, v1)
	}
}

// TestV1PinCoversFirstWrite: a file created pinned to FormatVersion 1
// holds only v1 pages, the empty bucket its engine writes at creation
// included — on every engine.
func TestV1PinCoversFirstWrite(t *testing.T) {
	for name, opts := range map[string]Options{
		"serial":     {FormatVersion: 1},
		"concurrent": {FormatVersion: 1, Concurrent: true},
		"multilevel": {FormatVersion: 1, PageCapacity: 16},
	} {
		dir := filepath.Join(t.TempDir(), name)
		f, err := CreateAt(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		fs, err := store.OpenFile(filepath.Join(dir, "buckets.th"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := fs.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if v := b.DecodedFormat(); v != format.V1 {
			t.Errorf("%s: the empty file's bucket 0 is a %v page, want v1", name, v)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
