// Command thcheck verifies a persistent trie-hashed file: it opens the
// directory, runs the full structural invariant check (trie shape, key
// placement, ordering, capacity, counters) and prints the statistics.
// Exit status 0 means the file is sound.
//
// When the directory holds a write-ahead log (wal.th), thcheck scans it
// first and reports its live length (where the scan stopped) and the
// file's length, record counts, the last checkpoint LSN, and a torn tail
// if the crash left one. A log caught mid-run is longer than its live
// part: past the end frame lie older generations' frames, which the log
// overwrites in place. Opening the file then replays the pending records
// and folds the log — that is the open contract, the same replay every
// reader gets — so a dirty log is repaired by the check itself; thcheck's
// job is to say out loud what the replay did.
//
// With -recover it first rebuilds lost metadata from the logical-path
// bounds stored in every bucket's header (the /TOR83/ reconstruction).
// Opening already falls back to the same reconstruction automatically
// when the metadata is missing or corrupt; the flag forces it.
//
// With -repair it scrubs the bucket file: unreadable buckets are
// preserved in <dir>/quarantine.th, their slots released, the trie
// rebuilt from the survivors, and the lost key ranges printed. The check
// then runs on the repaired file.
//
// Usage:
//
//	thcheck /data/mydb
//	thcheck -recover -b 50 /data/mydb
//	thcheck -repair /data/mydb
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"triehash"
	"triehash/internal/wal"
)

// reportWAL scans dir's log, if any, and prints its pre-replay state:
// what open is about to fold. Returns true when a log file exists.
func reportWAL(dir string) bool {
	data, err := os.ReadFile(filepath.Join(dir, "wal.th"))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "thcheck: wal: %v\n", err)
		}
		return false
	}
	recs, tail, ver, err := wal.Scan(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "thcheck: wal: %v\n", err)
		return true
	}
	var lastCkpt uint64
	pending := 0
	for _, r := range recs {
		if r.Op == wal.OpCheckpoint {
			lastCkpt = r.CheckpointLSN
			pending = 0
			continue
		}
		pending++
	}
	fmt.Printf("wal:         %d bytes live of %d on the medium, v%d framing, %d records (%d pending past checkpoint LSN %d)\n",
		tail.ValidSize, len(data), ver, len(recs), pending, lastCkpt)
	if tail.Damaged {
		fmt.Printf("wal tail:    damaged at byte %d: %s (%d bytes beyond; open truncates them)\n",
			tail.ValidSize, tail.Reason, tail.Remaining)
	}
	if pending > 0 || tail.Damaged {
		fmt.Printf("wal replay:  open will replay the pending records and fold the log\n")
	}
	return true
}

func main() {
	rec := flag.Bool("recover", false, "rebuild lost metadata from the bucket headers (TOR83)")
	repair := flag.Bool("repair", false, "scrub the bucket file: quarantine unreadable buckets and rebuild the trie from the survivors")
	b := flag.Int("b", 0, "bucket capacity for -recover (0 = the file's capacity hint, or the fullest surviving bucket)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: thcheck [-recover [-b N]] [-repair] <dir>")
		os.Exit(2)
	}
	dir := flag.Arg(0)
	hasWAL := reportWAL(dir)
	var f *triehash.File
	var err error
	if *rec {
		f, err = triehash.RecoverAt(dir, triehash.Options{BucketCapacity: *b})
	} else {
		f, err = triehash.OpenAt(dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "thcheck: open: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()

	if *repair {
		rep, err := f.Scrub()
		if err != nil {
			fmt.Fprintf(os.Stderr, "thcheck: repair: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("scrubbed:    %d slots, %d healthy buckets\n", rep.SlotsScanned, rep.Survivors)
		if rep.PagesV1 > 0 || rep.PagesV2 > 0 {
			fmt.Printf("page format: %d v1, %d v2", rep.PagesV1, rep.PagesV2)
			if rep.PagesV1 > 0 && rep.PagesV2 > 0 {
				fmt.Printf(" (mixed: file caught mid-upgrade; converges at the next full rewrite)")
			}
			fmt.Println()
		}
		for _, l := range rep.Quarantined {
			fmt.Printf("quarantined: %s\n", l)
		}
		for _, l := range rep.Vanished {
			fmt.Printf("vanished:    %s\n", l)
		}
		if rep.Lost() {
			fmt.Printf("records:     %d kept (%d lost with the quarantined buckets)\n",
				rep.KeysAfter, rep.KeysBefore-rep.KeysAfter)
		}
	}

	st := f.Stats()
	fmt.Printf("file:        %s\n", dir)
	fmt.Printf("format:      v%d (new pages; older pages upgrade as they are rewritten)\n", st.FormatVersion)
	fmt.Printf("records:     %d\n", st.Keys)
	fmt.Printf("buckets:     %d (load %.1f%%)\n", st.Buckets, st.Load*100)
	fmt.Printf("trie:        %d cells, %d bytes, depth %d\n", st.TrieCells, st.TrieBytes, st.Depth)
	if st.Levels > 1 {
		fmt.Printf("pages:       %d in %d levels\n", st.Pages, st.Levels)
	}
	if st.NilLeaves > 0 {
		fmt.Printf("nil leaves:  %d\n", st.NilLeaves)
	}
	fmt.Printf("splits:      %d (%d by redistribution)\n", st.Splits, st.Redistributions)
	if hasWAL {
		if ws, ok := f.WALStats(); ok {
			fmt.Printf("wal now:     folded to %d bytes, durable LSN %d\n", ws.Size, ws.DurableLSN)
		}
	}

	if err := f.CheckInvariants(); err != nil {
		fmt.Fprintf(os.Stderr, "thcheck: INTEGRITY VIOLATION: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("integrity:   ok")
}
