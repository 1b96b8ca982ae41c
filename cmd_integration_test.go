package triehash

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandLineTools builds every binary once and drives the full
// tooling workflow: generate a database, verify it, corrupt it, detect
// the corruption, destroy the metadata, recover, dump a file, sweep
// loads, run an experiment.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bindir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"thgen", "thcheck", "thdump", "thload", "thbench"} {
		out := filepath.Join(bindir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, b)
		}
		bins[name] = out
	}
	run := func(wantOK bool, stdin string, bin string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bins[bin], args...)
		if stdin != "" {
			cmd.Stdin = strings.NewReader(stdin)
		}
		out, err := cmd.CombinedOutput()
		if (err == nil) != wantOK {
			t.Fatalf("%s %v: err=%v\n%s", bin, args, err, out)
		}
		return string(out)
	}

	db := filepath.Join(t.TempDir(), "db")

	// thgen -> thcheck round trip.
	out := run(true, "", "thgen", "-dir", db, "-n", "1500", "-b", "20")
	if !strings.Contains(out, "wrote 1500 records") {
		t.Fatalf("thgen: %s", out)
	}
	out = run(true, "", "thcheck", db)
	if !strings.Contains(out, "integrity:   ok") || !strings.Contains(out, "records:     1500") {
		t.Fatalf("thcheck: %s", out)
	}

	// Corrupt a live payload byte; thcheck must fail.
	bf, err := os.OpenFile(filepath.Join(db, "buckets.th"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bf.WriteAt([]byte{0xAB}, 60); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	out = run(false, "", "thcheck", db)
	if !strings.Contains(out, "checksum mismatch") {
		t.Fatalf("corruption not reported: %s", out)
	}

	// -repair quarantines the damaged bucket, rebuilds the trie from the
	// survivors and reports the lost key range; the check passes again.
	out = run(true, "", "thcheck", "-repair", db)
	if !strings.Contains(out, "quarantined: slot") || !strings.Contains(out, "integrity:   ok") {
		t.Fatalf("thcheck -repair: %s", out)
	}
	if _, err := os.Stat(filepath.Join(db, "quarantine.th")); err != nil {
		t.Fatalf("repair left no quarantine file: %v", err)
	}
	run(true, "", "thcheck", db)

	// Fresh database; destroy the metadata; opening falls back to salvage
	// automatically (capacity restored from the bucket file's hint).
	db2 := filepath.Join(t.TempDir(), "db2")
	run(true, "", "thgen", "-dir", db2, "-n", "800", "-b", "10", "-sorted")
	if err := os.Remove(filepath.Join(db2, "meta.th")); err != nil {
		t.Fatal(err)
	}
	out = run(true, "", "thcheck", db2)
	if !strings.Contains(out, "integrity:   ok") || !strings.Contains(out, "records:     800") {
		t.Fatalf("thcheck after meta loss (auto-salvage): %s", out)
	}
	// The explicit recovery path still works and agrees.
	out = run(true, "", "thcheck", "-recover", "-b", "10", db2)
	if !strings.Contains(out, "integrity:   ok") || !strings.Contains(out, "records:     800") {
		t.Fatalf("thcheck -recover: %s", out)
	}
	// Metadata rebuilt: a plain check works again.
	run(true, "", "thcheck", db2)

	// A WAL-enabled database crashed mid-flight: thcheck reports the
	// pending log and the torn tail, and its open replays and folds them.
	db3 := filepath.Join(t.TempDir(), "db3")
	wf, err := CreateAt(db3, Options{BucketCapacity: 10, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	driveWALStream(t, wf, 120)
	crashed := copyWALDir(t, db3) // power cut: the live handle never closes
	tearLastRecord(t, filepath.Join(crashed, "wal.th"))
	out = run(true, "", "thcheck", crashed)
	for _, needle := range []string{"pending past checkpoint", "wal tail:    damaged", "wal replay:", "wal now:     folded", "integrity:   ok"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("thcheck on a crashed WAL file missing %q:\n%s", needle, out)
		}
	}
	// The replay folded the log: a second check finds nothing pending.
	out = run(true, "", "thcheck", crashed)
	if !strings.Contains(out, "(0 pending past checkpoint") || strings.Contains(out, "wal tail:") {
		t.Fatalf("thcheck after fold still reports pending work:\n%s", out)
	}
	wf.Close()

	// thdump reproduces the Fig 1 structure from stdin.
	words := "the\nof\nand\nto\na\nin\nthat\nis\ni\nit\nfor\nas\nwith\nwas\nhis\nhe\nbe\nnot\nby\nbut\nhave\nyou\nwhich\nare\non\nor\nher\nhad\nat\nfrom\nthis\n"
	out = run(true, words, "thdump", "-b", "4", "-m", "3")
	for _, needle := range []string{"[had have he her]", "(o,0)", "standard representation"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("thdump missing %q:\n%s", needle, out)
		}
	}

	// thload sweeps print the d=0 compact point.
	out = run(true, "", "thload", "-n", "500", "-b", "10", "-order", "asc", "-sweep", "d")
	if !strings.Contains(out, "100.000") {
		t.Fatalf("thload sweep lacks the 100%% point:\n%s", out)
	}

	// thbench runs a single experiment, in both renderings.
	out = run(true, "", "thbench", "-experiment", "fig8")
	if !strings.Contains(out, "1.000") {
		t.Fatalf("thbench fig8:\n%s", out)
	}
	out = run(true, "", "thbench", "-csv", "-experiment", "fig8")
	if !strings.HasPrefix(out, "fig8,") {
		t.Fatalf("thbench -csv:\n%s", out)
	}
	out = run(true, "", "thbench", "-list")
	if !strings.Contains(out, "fig10") || !strings.Contains(out, "sec23-positioning") {
		t.Fatalf("thbench -list:\n%s", out)
	}
	run(false, "", "thbench", "-experiment", "nope")
}

// TestToolsMixedFormat drives thcheck and thdump over a file caught
// mid-upgrade: the committed v1 fixture reopened under the v2-default
// build with one fresh write, so v1 and v2 bucket pages coexist. thcheck
// must report the write format on a healthy file, -repair must survive
// corruption in the mixed state and report the per-version page census,
// and thdump must render the v1-vs-v2 encoding comparison.
func TestToolsMixedFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bindir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"thcheck", "thdump"} {
		out := filepath.Join(bindir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, b)
		}
		bins[name] = out
	}
	run := func(wantOK bool, stdin string, bin string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bins[bin], args...)
		if stdin != "" {
			cmd.Stdin = strings.NewReader(stdin)
		}
		out, err := cmd.CombinedOutput()
		if (err == nil) != wantOK {
			t.Fatalf("%s %v: err=%v\n%s", bin, args, err, out)
		}
		return string(out)
	}

	db := copyGoldenV1(t)
	f, err := OpenAt(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Put("ivy", []byte("value-ivy")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out := run(true, "", "thcheck", db)
	if !strings.Contains(out, "integrity:   ok") || !strings.Contains(out, "format:      v2") {
		t.Fatalf("thcheck on mixed file: %s", out)
	}
	out = run(true, "the\nof\nand\nto\na\nin\nthat\nis\n", "thdump", "-b", "4")
	if !strings.Contains(out, "on-disk encoding (v1 fixed-width vs v2 varint):") {
		t.Fatalf("thdump lacks the encoding comparison: %s", out)
	}

	// Corrupt one payload byte of the first slot; repair must quarantine
	// it, report the surviving pages' version census, and leave a healthy
	// (still mixed-version) file behind.
	bf, err := os.OpenFile(filepath.Join(db, "buckets.th"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bf.WriteAt([]byte{0xAB}, 60); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	run(false, "", "thcheck", db)
	out = run(true, "", "thcheck", "-repair", db)
	if !strings.Contains(out, "quarantined: slot") || !strings.Contains(out, "page format:") {
		t.Fatalf("thcheck -repair on mixed file: %s", out)
	}
	if !strings.Contains(out, "v1,") || !strings.Contains(out, "v2") {
		t.Fatalf("repair census lacks per-version counts: %s", out)
	}
	run(true, "", "thcheck", db)
}
