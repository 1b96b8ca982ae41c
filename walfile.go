package triehash

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"triehash/internal/obs"
	"triehash/internal/wal"
)

// This file wires the write-ahead log (internal/wal) into the public
// File: attachment at create/open, replay on open, and the per-operation
// append+commit the mutation paths call. The durability contract has
// three tiers — see DESIGN.md "Durability contract":
//
//	1. WAL replay      — every op committed since the last checkpoint
//	2. checkpoint      — buckets + metadata durably folded, log rewound
//	3. salvage + scrub — trie rebuilt from bucket bounds, damage quarantined
//
// Tier 1 is the hot path; tiers 2 and 3 are the fallbacks replay leans on
// when the metadata is stale (always, between checkpoints) or a bucket
// slot is torn (replay re-puts the logged records after Scrub).

// WALStats reports the write-ahead log's activity. The batching the
// group committer achieved is Committed/Fsyncs — the number of durable
// operations each device sync amortized over.
type WALStats struct {
	// Appends counts records appended (checkpoint markers included).
	Appends uint64
	// Fsyncs counts device syncs issued by the group committer.
	Fsyncs uint64
	// Committed counts records those fsyncs made durable.
	Committed uint64
	// Checkpoints counts log folds (size-triggered, Sync and Close).
	Checkpoints uint64
	// DurableLSN is the highest log sequence number known durable.
	DurableLSN uint64
	// Size is the live log length in bytes.
	Size int64
}

// WALStats returns the log's activity counters; ok is false when the
// file runs without a WAL.
func (f *File) WALStats() (s WALStats, ok bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.log == nil {
		return WALStats{}, false
	}
	ls := f.log.Stats()
	return WALStats{
		Appends: ls.Appends, Fsyncs: ls.Fsyncs, Committed: ls.Committed,
		Checkpoints: ls.Checkpoints, DurableLSN: ls.DurableLSN, Size: ls.Size,
	}, true
}

// walPath returns the log file's location in a persistent file's
// directory.
func walPath(dir string) string { return filepath.Join(dir, "wal.th") }

// attachWAL opens the log on dev, replays any surviving records into the
// engine, folds the replayed state with an immediate checkpoint — which
// is also the install of the metadata of a file just built from bucket
// contents — and leaves the log attached as the file's hot durability
// path. Call before the file is published (no locking).
func (f *File) attachWAL(dev wal.Device) error {
	l, recs, tail, err := wal.Open(dev, f.opts.formatVersion(), f.hook)
	if err != nil {
		return err
	}
	// Only operations after the last checkpoint marker are pending: the
	// marker certifies everything before it was folded into the bucket
	// pages before the log was rewound (a clean close leaves exactly one
	// marker and nothing else).
	start := 0
	for i, r := range recs {
		if r.Op == wal.OpCheckpoint {
			start = i + 1
		}
	}
	pending := recs[start:]
	if len(pending) > 0 || tail.Damaged {
		if f.recovered {
			// A file rebuilt from its buckets installs the rebuild before
			// the replay, so a replay that fails leaves it behind rather
			// than the metadata it replaced.
			if err := f.installMeta(true); err != nil {
				_ = l.Close() // the install error takes precedence
				return err
			}
		}
		if err := f.replayWAL(pending); err != nil {
			_ = l.Close() // the replay error takes precedence
			return fmt.Errorf("triehash: wal replay: %w", err)
		}
		// Recorded rather than emitted: the observer attaches after open,
		// so Observe replays the fact (the f.recovered pattern).
		f.walReplayed = len(pending)
		if tail.Damaged {
			f.walTornTail = fmt.Sprintf("%s (%d bytes dropped)", tail.Reason, tail.Remaining)
		}
	}
	f.log = l
	f.opts.WAL = true
	if err := f.checkpointLocked(); err != nil {
		f.log = nil
		_ = l.Close() // the checkpoint error takes precedence
		return err
	}
	return nil
}

// logDevice opens the file's write-ahead log device: in memory when an
// in-memory file asks for one, and dir/wal.th when a persistent file asks
// for one or already has one — a file that chose the WAL contract at
// creation keeps it (and gets its crash replay) even when the reopener
// forgot the flag. It returns nil when the file runs without a log.
func (f *File) logDevice() (wal.Device, error) {
	if f.dir == "" {
		if !f.opts.WAL {
			return nil, nil
		}
		// An in-memory WAL buys nothing across a process crash, but it
		// exercises the exact logging path, so tests and differential
		// comparisons run it against the real durability code.
		return wal.NewMem(), nil
	}
	path := walPath(f.dir)
	if !f.opts.WAL {
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			return nil, nil
		} else if err != nil {
			return nil, err
		}
	}
	dev, err := wal.OpenFileDevice(path)
	if err != nil {
		return nil, err
	}
	return dev, nil
}

// replayWAL restores the committed state: canonicalize the physical
// state, then apply the pending records in log order.
//
// The canonicalization pass is load-bearing. A pending log means the
// crash came after the last checkpoint, so the bucket pages are some
// write-prefix of the dead run — usually ahead of the metadata's trie
// (splits allocated buckets the trie never heard of, slots were
// rewritten in place). Logical redo through that inconsistent pairing
// mis-addresses and mis-counts: the stale trie absorbs "future" records
// from the buckets it still points at, which corrupts the key counter
// and strands the moved-on slots. So when the invariants no longer hold,
// the trie is rebuilt from the bucket bounds first — the deep-repair
// tier (Scrub: salvage reconstruction plus quarantine of torn slots) —
// and only then does the log replay, upserting and deleting against a
// consistent engine. Replay then re-puts exactly the committed records a
// quarantined slot would otherwise have lost; pre-checkpoint records in
// a quarantined slot stay under the scrub lost-range contract, as
// documented.
func (f *File) replayWAL(recs []wal.Record) error {
	if err := f.CheckInvariants(); err != nil {
		if f.multi != nil {
			return fmt.Errorf("%w: %v", errNeedsSalvage, err)
		}
		if _, serr := f.Scrub(); serr != nil {
			return errors.Join(err, serr)
		}
	}
	return f.applyWAL(recs)
}

// applyWAL replays records in log order through the engine. Deletes of
// absent keys are no-ops, which is what makes replay idempotent.
func (f *File) applyWAL(recs []wal.Record) error {
	for _, r := range recs {
		switch r.Op {
		case wal.OpPut:
			if _, err := f.eng.PutOp(r.Key, r.Value, nil); err != nil { //thvet:ok obsop -- replay runs at open, before an observer can attach; Observe reports it as one EvWALReplay event instead of fake op samples
				return err
			}
		case wal.OpDelete:
			if err := f.eng.DeleteOp(r.Key, nil); err != nil && !errors.Is(mapNotFound(err), ErrNotFound) {
				return err
			}
		}
	}
	return nil
}

// walAppend logs one applied mutation and waits for the group committer
// to make it durable. Called with the file lock held (shared under the
// concurrent engine — which is what lets commits from many writers share
// an fsync). sp may be nil; with spans on, the append and the rendezvous
// wait are separate measured stages.
func (f *File) walAppend(op wal.Op, key string, value []byte, sp *obs.Span) error {
	if f.log == nil {
		return nil
	}
	lsn, err := f.log.Append(op, key, value)
	if err != nil {
		return err
	}
	sp.Mark(obs.StageWALAppend)
	err = f.log.Commit(lsn)
	sp.Mark(obs.StageCommitWait)
	return err
}

// walAppendBatch logs every record the engine accepted and waits for one
// commit covering the whole batch — the batch's records ride a single
// rendezvous no matter how many buckets they touched. Failures land in
// errs at the failed record's position.
func (f *File) walAppendBatch(keys []string, values [][]byte, errs []error, sp *obs.Span) {
	if f.log == nil {
		return
	}
	var last uint64
	appended := make([]int, 0, len(keys))
	for i, k := range keys {
		if errs[i] != nil {
			continue
		}
		lsn, err := f.log.Append(wal.OpPut, k, values[i])
		if err != nil {
			errs[i] = err
			continue
		}
		last = lsn
		appended = append(appended, i)
	}
	sp.Mark(obs.StageWALAppend)
	if last == 0 {
		return
	}
	if err := f.log.Commit(last); err != nil {
		for _, i := range appended {
			errs[i] = err
		}
	}
	sp.Mark(obs.StageCommitWait)
}
