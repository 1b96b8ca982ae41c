package triehash

import (
	"fmt"
	"path/filepath"

	"triehash/internal/core"
	"triehash/internal/store"
)

// ErrCorrupt is the sentinel every detected-corruption error matches with
// errors.Is: a bucket slot whose checksum, length frame or payload
// encoding no longer decodes. Use errors.As with *CorruptError for the
// damaged slot's address. It is distinct from a key simply being absent —
// corruption is evidence of a torn write or media fault, and Scrub (or
// thcheck -repair) is the recovery path.
var ErrCorrupt = store.ErrCorrupt

// CorruptError reports an unreadable bucket slot with its address and the
// reason reads reject it.
type CorruptError = store.CorruptError

// ScrubReport summarizes a Scrub pass: slots scanned, buckets
// quarantined, and exactly which key ranges were lost.
type ScrubReport = core.ScrubReport

// LostRange names the key coverage of one bucket Scrub gave up.
type LostRange = core.LostRange

// QuarantineEntry is one damaged bucket preserved in the quarantine file:
// its slot address, the read failure that condemned it, and its raw bytes
// as they were on the medium.
type QuarantineEntry = store.QuarantineEntry

// Scrub repairs a file whose bucket store is damaged. Every slot of the
// underlying store is scanned (beneath any buffer pool, so a warm frame
// cannot mask on-medium corruption); unreadable buckets are preserved
// verbatim in dir/quarantine.th — no byte is destroyed before the
// quarantine is durable — their slots are released, and the trie is
// rebuilt from the surviving buckets. The report names each quarantined
// slot and the key range it covered, so callers know exactly what was
// lost. A healthy file scrubs to an empty report.
//
// After a successful scrub the file passes CheckInvariants again and, for
// persistent files, fresh metadata is written back. Scrub applies to
// single-level files; a damaged multilevel file is salvaged by OpenAt,
// which already rebuilds it as a single-level trie.
func (f *File) Scrub() (*ScrubReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if f.multi != nil {
		return nil, fmt.Errorf("triehash: scrub of multilevel files is not supported (reopen with OpenAt after the metadata is lost; salvage rebuilds a single-level trie)")
	}
	qpath := ""
	if f.dir != "" {
		qpath = filepath.Join(f.dir, "quarantine.th")
	}
	var nf *core.File
	var rep *ScrubReport
	var err error
	if f.conc != nil {
		// The exclusive lock quiesces the shared-lock writers; install
		// re-mirrors the repaired trie into a fresh arena.
		nf, rep, err = f.conc.Scrub(qpath)
	} else {
		nf, rep, err = f.single.Scrub(qpath)
	}
	if err != nil {
		return nil, err
	}
	if _, _, err := f.install(nf); err != nil {
		return nil, err
	}
	if f.dir != "" {
		if err := f.syncLocked(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// ReadQuarantine returns the buckets preserved in dir/quarantine.th by
// earlier scrubs, oldest first — the forensic record of everything repair
// has given up on. Entries whose own checksum fails are skipped and
// reported through the returned error; the surviving entries are still
// returned.
func ReadQuarantine(dir string) ([]QuarantineEntry, error) {
	return store.ReadQuarantine(filepath.Join(dir, "quarantine.th"))
}
