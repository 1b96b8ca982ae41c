package triehash

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// entryRecords returns BulkLoad's record source for n ascending keys.
func entryRecords(n int) func() (string, []byte, bool) {
	i := 0
	return func() (string, []byte, bool) {
		if i == n {
			return "", nil, false
		}
		i++
		return fmt.Sprintf("rec%04d", i), []byte("v"), true
	}
}

// staleLogDir returns a directory holding only the log of a previous
// tenant that crashed: one committed Put of "ghost".
func staleLogDir(t *testing.T) string {
	t.Helper()
	tenant := filepath.Join(t.TempDir(), "tenant")
	f, err := CreateAt(tenant, Options{BucketCapacity: 8, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Put("ghost", []byte("old")); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(walPath(tenant))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir), log, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// crashedDir returns the crash image of a file with a log: 100 records
// folded into the buckets by a checkpoint, then a Put of "logged" that
// only the log holds. meta, when not nil, replaces meta.th (an empty
// slice removes it).
func crashedDir(t *testing.T, meta []byte) string {
	t.Helper()
	live := filepath.Join(t.TempDir(), "live")
	f, err := BulkLoad(live, Options{BucketCapacity: 8, WAL: true}, 1, entryRecords(100))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Put("logged", []byte("v")); err != nil {
		t.Fatal(err)
	}
	dir := copyWALDir(t, live)
	switch {
	case meta == nil:
	case len(meta) == 0:
		if err := os.Remove(filepath.Join(dir, "meta.th")); err != nil {
			t.Fatal(err)
		}
	default:
		if err := os.WriteFile(filepath.Join(dir, "meta.th"), meta, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// entryPoints is every way to build a File.
var entryPoints = []struct {
	name string
	// setup returns the directory the entry point runs in ("" for none).
	setup func(t *testing.T) string
	open  func(dir string, opts Options) (*File, error)
	// fresh: the call creates a new file in dir, where a previous
	// tenant's log waits; reopens: it opens the crash image of a file
	// whose last Put only the log holds; perOpen: it takes only the
	// per-open options; plain: it takes none.
	fresh, reopens, perOpen, plain bool
}{
	{
		name:  "Create",
		setup: func(*testing.T) string { return "" },
		open:  func(_ string, opts Options) (*File, error) { return Create(opts) },
	},
	{
		name:  "CreateAt",
		setup: staleLogDir,
		open:  CreateAt,
		fresh: true,
	},
	{
		name:  "BulkLoad/memory",
		setup: func(*testing.T) string { return "" },
		open: func(_ string, opts Options) (*File, error) {
			return BulkLoad("", opts, 1, entryRecords(100))
		},
	},
	{
		name:  "BulkLoad/disk",
		setup: staleLogDir,
		open: func(dir string, opts Options) (*File, error) {
			return BulkLoad(dir, opts, 1, entryRecords(100))
		},
		fresh: true,
	},
	{
		name:    "RecoverAt",
		setup:   func(t *testing.T) string { return crashedDir(t, []byte{}) },
		open:    RecoverAt,
		reopens: true,
	},
	{
		name:    "OpenAtWith",
		setup:   func(t *testing.T) string { return crashedDir(t, nil) },
		open:    OpenAtWith,
		reopens: true,
		perOpen: true,
	},
	{
		name:    "OpenAtWith/salvage",
		setup:   func(t *testing.T) string { return crashedDir(t, []byte("not metadata")) },
		open:    OpenAtWith,
		reopens: true,
		perOpen: true,
	},
	{
		name:    "OpenAt",
		setup:   func(t *testing.T) string { return crashedDir(t, nil) },
		open:    func(dir string, _ Options) (*File, error) { return OpenAt(dir) },
		reopens: true,
		plain:   true,
	},
}

// TestEntryPointsAssembleAlike runs every entry point with a pool, the
// log and the concurrent engine, and checks that each gets all three and
// reports to an observer; that CreateAt and BulkLoad drop the log a
// previous tenant left in dir; and that a reopened file replays the log
// it finds, OpenAt included.
func TestEntryPointsAssembleAlike(t *testing.T) {
	opts := Options{BucketCapacity: 8, CacheFrames: 8, WAL: true, Concurrent: true}
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			dir := ep.setup(t)
			f, err := ep.open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := f.Put("probe", []byte("v")); err != nil {
				t.Fatal(err)
			}
			o := NewObserver(ObserverConfig{})
			f.Observe(o)
			if _, err := f.Get("probe"); err != nil {
				t.Fatal(err)
			}
			if n := o.Op(OpGet).Count(); n != 1 {
				t.Errorf("observer counted %d Gets, want 1", n)
			}
			if o.Op(OpRead).Count() == 0 {
				t.Error("observer counted no store read for the Get")
			}
			if _, ok := f.WALStats(); !ok {
				t.Error("no log attached")
			}
			if !ep.plain {
				if s := f.Stats(); s.CacheHits+s.CacheMisses == 0 {
					t.Error("the pool served no access")
				}
				if f.conc == nil {
					t.Error("the concurrent engine is not installed")
				}
			}
			if ep.fresh {
				if _, err := f.Get("ghost"); !errors.Is(err, ErrNotFound) {
					t.Errorf("the previous tenant's log leaked in: Get(ghost) err = %v", err)
				}
			}
			if ep.reopens {
				if _, err := f.Get("logged"); err != nil {
					t.Errorf("the log was not replayed: Get(logged) err = %v", err)
				}
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if !ep.fresh {
				return
			}
			g, err := OpenAt(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if _, err := g.Get("ghost"); !errors.Is(err, ErrNotFound) {
				t.Errorf("the previous tenant's log replayed on reopen: Get(ghost) err = %v", err)
			}
		})
	}
}

// TestEntryPointsRefuseAlike: every entry point that takes options
// refuses a format pin other than 0 (none), 1 or 2, and every one that builds the file's
// structure from them refuses single-level features on a multilevel
// file, each with the error Create gives. OpenAtWith takes the structure
// from the metadata and ignores PageCapacity, but refuses the concurrent
// engine over a multilevel file.
func TestEntryPointsRefuseAlike(t *testing.T) {
	for name, bad := range map[string]Options{
		"FormatVersion 7":               {FormatVersion: 7},
		"FormatVersion 257":             {FormatVersion: 257},
		"PageCapacity + Concurrent":     {PageCapacity: 16, Concurrent: true},
		"PageCapacity + Redistribution": {PageCapacity: 16, Redistribution: RedistSuccessor},
	} {
		_, want := Create(bad)
		if want == nil {
			t.Fatalf("%s: Create accepted", name)
		}
		for _, ep := range entryPoints {
			if ep.plain || (ep.perOpen && bad.FormatVersion == 0) {
				continue
			}
			f, err := ep.open(ep.setup(t), bad)
			if err == nil {
				f.Close()
				t.Errorf("%s: %s accepted", name, ep.name)
			} else if err.Error() != want.Error() {
				t.Errorf("%s: %s refused with %q, Create with %q", name, ep.name, err, want)
			}
		}
	}

	dir := filepath.Join(t.TempDir(), "mlth")
	f, err := CreateAt(dir, Options{BucketCapacity: 8, PageCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if g, err := OpenAtWith(dir, Options{Concurrent: true}); err == nil {
		g.Close()
		t.Error("OpenAtWith opened a multilevel file with the concurrent engine")
	}
}
