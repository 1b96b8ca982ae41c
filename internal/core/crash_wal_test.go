package core

import (
	"errors"
	"fmt"
	"testing"

	"triehash/internal/format"
	"triehash/internal/store"
	"triehash/internal/trie"
	"triehash/internal/wal"
	"triehash/internal/workload"
)

// The WAL crash harness extends the power-cut enumeration to the logged
// durability contract. The workload drives the engine exactly like the
// public layer does with Options.WAL on — apply to the engine, append to
// the log, commit (fsync) — over the shipped FileStore and wal.FileDevice
// on one CrashDisk, whose journal carries the log's writes in the same
// mutation timeline as the slot writes. A checkpoint rewinds the log, so
// after the first one every append and marker overwrites an older
// generation's frames in place, and the medium holds a dead tail past the
// live end. Every journal position is therefore a cut inside a bucket
// write, between an engine apply and its log append, inside the append
// itself (torn, bit-flipped or zeroed mid-frame, over stale frames),
// inside a checkpoint's marker write over the previous generation, or at
// the close trim — and at every one of them the recovery that the public
// layer performs
// (canonicalize the bucket state, then replay the log's post-checkpoint
// suffix) must restore every COMMITTED operation, not merely every
// checkpointed one.

// walCrashRun records the logged workload: the shared crashRun bookkeeping
// plus the commit horizon (which ops' fsyncs had completed by each journal
// position) and the checkpoint metadata installs.
type walCrashRun struct {
	crashRun
	// commitPos[i] is the journal length when op i's Commit returned — the
	// op is durable at every cut at or beyond it. -1 for ops that never
	// reached the log (deletes of absent keys).
	commitPos []int
	// commitSnap[i] is the model after op i: the state every cut past
	// commitPos[i] must be able to restore.
	commitSnap []map[string]string
	// ckptMarks / ckptMetas are the checkpoint barriers: metadata is
	// durably installed ONLY here (between checkpoints it goes stale and
	// the log carries the difference).
	ckptMarks []int
	ckptMetas [][]byte
}

// buildWALCrashRun executes the canonical logged workload against cfg.
func buildWALCrashRun(t *testing.T, cfg Config, seed int64, nops, ckptEvery int, concurrent bool) *walCrashRun {
	t.Helper()
	disk, fs := newCrashDisk(t, cfg)
	inner, err := New(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	var f crashDriver = inner
	if concurrent {
		ce, err := NewConcurrent(inner)
		if err != nil {
			t.Fatal(err)
		}
		f = ce
	}
	dev, err := wal.OpenMediumDevice(disk.Log())
	if err != nil {
		t.Fatal(err)
	}
	l, recs, tail, err := wal.Open(dev, inner.Config().Format, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || tail.Damaged {
		t.Fatalf("fresh crash log opened with %d records, tail %+v", len(recs), tail)
	}
	defer l.Close()

	keys := workload.Uniform(seed, nops, 3, 8)
	r := &walCrashRun{crashRun: crashRun{
		disk: disk,
		values: make(map[string][]struct {
			op    int
			value string
		}),
		deletes: make(map[string][]int),
	}}
	model := map[string]string{}
	record := func(op crashOp, start, commit int) {
		r.ops = append(r.ops, op)
		r.opStart = append(r.opStart, start)
		r.commitPos = append(r.commitPos, commit)
		snap := make(map[string]string, len(model))
		for k, v := range model {
			snap[k] = v
		}
		r.commitSnap = append(r.commitSnap, snap)
	}
	commit := func(op wal.Op, key, value string) int {
		lsn, err := l.Append(op, key, []byte(value))
		if err != nil {
			t.Fatalf("append %v %q: %v", op, key, err)
		}
		appended := disk.Journal()
		if err := l.Commit(lsn); err != nil {
			t.Fatalf("commit %v %q: %v", op, key, err)
		}
		// A returned Commit promises durability: a log sync must cover
		// the append.
		if got := disk.Log().Synced(); got < appended {
			t.Fatalf("commit %v %q returned with the log's last barrier at journal %d, before its append at %d",
				op, key, got, appended)
		}
		return disk.Journal()
	}
	checkpoint := func() {
		// The public layer's checkpointLocked order: buckets durable,
		// metadata installed, then — and only then — the log folds.
		syncBuckets(t, disk, fs)
		r.ckptMarks = append(r.ckptMarks, disk.Journal())
		r.ckptMetas = append(r.ckptMetas, f.SaveMeta())
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nops; i++ {
		op := crashOp{key: keys[i], value: fmt.Sprintf("%s#%d", keys[i], i)}
		switch {
		case i%7 == 3 && i > 0:
			op = crashOp{del: true, key: keys[i-1]}
		case i%5 == 2 && i > 10:
			op.key = keys[i-10]
			op.value = fmt.Sprintf("%s#%d", op.key, i)
		}
		start := disk.Journal()
		if op.del {
			r.deletes[op.key] = append(r.deletes[op.key], start)
			err := f.Delete(op.key)
			switch {
			case errors.Is(err, ErrNotFound):
				record(op, start, -1) // nothing applied, nothing logged
				continue
			case err != nil:
				t.Fatalf("op %d: delete %q: %v", i, op.key, err)
			}
			delete(model, op.key)
			record(op, start, commit(wal.OpDelete, op.key, ""))
		} else {
			if _, err := f.Put(op.key, []byte(op.value)); err != nil {
				t.Fatalf("op %d: put %q: %v", i, op.key, err)
			}
			model[op.key] = op.value
			r.values[op.key] = append(r.values[op.key], struct {
				op    int
				value string
			}{len(r.ops), op.value})
			record(op, start, commit(wal.OpPut, op.key, op.value))
		}
		if (i+1)%ckptEvery == 0 {
			checkpoint()
		}
	}
	checkpoint()
	return r
}

// committedBefore returns the model and journal position of the last
// committed operation at or before cut k.
func (r *walCrashRun) committedBefore(k int) (map[string]string, int) {
	snap, mark := map[string]string{}, 0
	for i, p := range r.commitPos {
		if p < 0 || p > k {
			continue
		}
		if p >= mark {
			snap, mark = r.commitSnap[i], p
		}
	}
	return snap, mark
}

// ckptBefore returns the metadata of the last checkpoint at or before k
// (nil when the crash predates the first checkpoint).
func (r *walCrashRun) ckptBefore(k int) []byte {
	var meta []byte
	for i, m := range r.ckptMarks {
		if m > k {
			break
		}
		meta = r.ckptMetas[i]
	}
	return meta
}

// replayImageLog performs the public layer's replay step on a reopened
// image: read the (possibly torn) log the cut left behind through
// wal.FileDevice, take the suffix after the last checkpoint marker, and
// apply it. Returns the keys whose last pending record is a put — records
// recovery must serve no matter what the damage did to their bucket.
func replayImageLog(t *testing.T, f *File, img *store.CrashDisk, k int, kind store.CorruptKind) map[string]bool {
	t.Helper()
	dev, err := wal.OpenMediumDevice(img.Log())
	if err != nil {
		t.Fatalf("cut %d kind %v: opening log: %v", k, kind, err)
	}
	data, err := dev.Contents()
	if err != nil {
		t.Fatalf("cut %d kind %v: reading log: %v", k, kind, err)
	}
	recs, _, _, err := wal.Scan(data)
	if err != nil {
		t.Fatalf("cut %d kind %v: scanning log: %v", k, kind, err)
	}
	start := 0
	for i, rec := range recs {
		if rec.Op == wal.OpCheckpoint {
			start = i + 1
		}
	}
	replayedPut := map[string]bool{}
	for _, rec := range recs[start:] {
		switch rec.Op {
		case wal.OpPut:
			if _, err := f.Put(rec.Key, rec.Value); err != nil {
				t.Fatalf("cut %d kind %v: replaying put %q: %v", k, kind, rec.Key, err)
			}
			replayedPut[rec.Key] = true
		case wal.OpDelete:
			if err := f.Delete(rec.Key); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("cut %d kind %v: replaying delete %q: %v", k, kind, rec.Key, err)
			}
			delete(replayedPut, rec.Key)
		}
	}
	return replayedPut
}

// verifyWALCut materializes one power-cut image, recovers it the way the
// public layer does (canonicalize, then replay the log suffix), and
// checks the logged durability contract: every committed operation's
// effect is restored.
func (r *walCrashRun) verifyWALCut(t *testing.T, cfg Config, k int, kind store.CorruptKind, seed int64) {
	t.Helper()
	var img *store.CrashDisk
	damaged := int32(-1)
	if kind < 0 {
		img = r.disk.PowerCut(k)
	} else {
		img, damaged = r.disk.PowerCutDamaged(k, kind, seed)
	}
	snap, commitMark := r.committedBefore(k)
	meta := r.ckptBefore(k)

	excused := map[string]bool{}
	if damaged >= 0 {
		for _, key := range slotKeys(r.disk.PowerCut(k), damaged) {
			excused[key] = true
		}
		for _, key := range slotKeys(r.disk.PowerCut(k+1), damaged) {
			excused[key] = true
		}
	}

	f, rep, err := reopenChain(cfg, img, meta)
	if err != nil {
		for key := range snap {
			if !excused[key] {
				t.Fatalf("cut %d kind %v: reopen failed (%v) with committed key %q at stake", k, kind, err, key)
			}
		}
		return
	}
	replayedPut := replayImageLog(t, f, img, k, kind)
	quarantined := map[int32]bool{}
	if rep != nil {
		for _, l := range rep.Quarantined {
			quarantined[l.Addr] = true
		}
		for _, l := range rep.Vanished {
			quarantined[l.Addr] = true
		}
	}
	for key, want := range snap {
		v, err := f.Get(key)
		if err != nil {
			if r.deletedBetween(key, commitMark, k) {
				continue // an applied post-commit delete removed it
			}
			// A pre-checkpoint record in a damaged slot is the scrub
			// lost-range contract — but only when the log cannot re-put
			// it; a replayed put must always be served.
			if excused[key] && !replayedPut[key] && (kind == store.CorruptZero || quarantined[damaged]) {
				continue
			}
			t.Fatalf("cut %d kind %v: committed key %q lost: %v (damaged slot %d, report %+v)",
				k, kind, key, err, damaged, rep)
		}
		if allowed := r.allowedValues(key, k); !allowed[string(v)] {
			t.Fatalf("cut %d kind %v: key %q = %q, want %q or a later applied write",
				k, kind, key, v, want)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("cut %d kind %v: recovered file fails invariants: %v", k, kind, err)
	}
	universe := map[string]bool{}
	for _, op := range r.ops {
		universe[op.key] = true
	}
	if err := f.Range("", "", func(key string, _ []byte) bool {
		if !universe[key] {
			t.Fatalf("cut %d kind %v: recovered file invented key %q", k, kind, key)
		}
		return true
	}); err != nil {
		t.Fatalf("cut %d kind %v: range over recovered file: %v", k, kind, err)
	}
}

// TestWALCrashPoints enumerates every journal position of the logged
// workload — bucket writes, log appends (torn, flipped, zeroed),
// checkpoint markers written over the previous generation — for both
// engines, and demands convergent recovery of every committed operation.
func TestWALCrashPoints(t *testing.T) {
	configs := []struct {
		name       string
		cfg        Config
		concurrent bool
	}{
		{"thcl-wal", Config{Capacity: 4, Mode: trie.ModeTHCL}, false},
		// v1 pages and v1 log framing (no log header).
		{"thcl-wal-v1", Config{Capacity: 4, Mode: trie.ModeTHCL, Format: format.V1}, false},
		{"thcl-wal-concurrent", Config{Capacity: 4, Mode: trie.ModeTHCL}, true},
	}
	kinds := []store.CorruptKind{-1, store.CorruptTear, store.CorruptFlip, store.CorruptZero}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := tc.cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			r := buildWALCrashRun(t, cfg, 1009, 120, 17, tc.concurrent)
			stride := 1
			if testing.Short() {
				stride = 7
			}
			n := r.disk.Journal()
			t.Logf("journal: %d mutations, %d commits, %d checkpoints", n, len(r.commitPos), len(r.ckptMarks))
			for k := 0; k <= n; k += stride {
				for _, kind := range kinds {
					r.verifyWALCut(t, cfg, k, kind, int64(k)*1000003+int64(kind))
				}
			}
			for _, k := range []int{0, 1, n - 1, n} {
				for _, kind := range kinds {
					r.verifyWALCut(t, cfg, k, kind, int64(k)*999983+int64(kind))
				}
			}
		})
	}
}
