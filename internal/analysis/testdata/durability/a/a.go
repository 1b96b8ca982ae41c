// Package a replicates the persistent-file write idioms for the
// durability golden test: *.th files are written with WriteFileDurable
// and installed with os.Rename followed by SyncDir on the parent.
package a

import (
	"os"
	"path/filepath"
)

// WriteFileDurable and SyncDir stand in for the store package's
// primitives; the analyzer matches them by name.
func WriteFileDurable(path string, data []byte) error { return nil }
func SyncDir(dir string) error                        { return nil }

func volatileWrite(dir string, meta []byte) error {
	return os.WriteFile(filepath.Join(dir, "meta.th"), meta, 0o644) // want `os\.WriteFile on a \*\.th path is not durable`
}

func volatileRename(dir, tmp string) error {
	return os.Rename(tmp, filepath.Join(dir, "meta.th")) // want `os\.Rename installing a \*\.th file without store\.SyncDir`
}

// durableInstall is the sanctioned idiom: the temp file is fsynced, the
// rename is made durable by syncing the directory.
func durableInstall(dir string, meta []byte) error {
	tmp := filepath.Join(dir, "meta.tmp")
	if err := WriteFileDurable(tmp, meta); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, "meta.th")); err != nil {
		return err
	}
	return SyncDir(dir)
}

// otherFiles outside the *.th namespace are not this analyzer's business.
func otherFiles(dir string, b []byte) error {
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), b, 0o644); err != nil {
		return err
	}
	return os.Rename(filepath.Join(dir, "a.txt"), filepath.Join(dir, "b.txt"))
}

// Device replicates the write-ahead log's device surface (matched by
// type name, like the store primitives above are matched by function
// name).
type Device interface {
	Append(p []byte, live int) error
	Sync() error
	Rewind(n int64) error
	TruncateTo(n int64) error
}

func unsyncedTruncate(d Device) error {
	return d.TruncateTo(0) // want `wal TruncateTo without a Sync in the same function`
}

// unsyncedRewind writes the next generation's marker over the previous
// generation and never syncs it.
func unsyncedRewind(d Device, marker []byte) error {
	if err := d.Rewind(0); err != nil { // want `wal Rewind without a Sync in the same function`
		return err
	}
	return d.Append(marker, len(marker))
}

// repairIdiom is the sanctioned pairing for a tail repair: truncate,
// sync — the truncation becomes durable with the sync.
func repairIdiom(d Device, n int64) error {
	if err := d.TruncateTo(n); err != nil {
		return err
	}
	return d.Sync()
}

// checkpointIdiom is the sanctioned pairing for a checkpoint: rewind,
// rewrite the marker, sync.
func checkpointIdiom(d Device, marker []byte) error {
	if err := d.Rewind(0); err != nil {
		return err
	}
	if err := d.Append(marker, len(marker)); err != nil {
		return err
	}
	return d.Sync()
}

// MemDevice is a device implementation: its own TruncateTo and Rewind are
// the primitives being defined, not uses of them; not flagged.
type MemDevice struct{ buf []byte }

func (d *MemDevice) TruncateTo(n int64) error {
	d.buf = d.buf[:n]
	return nil
}

func (d *MemDevice) Rewind(n int64) error { return d.TruncateTo(n) }
