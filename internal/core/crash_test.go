package core

import (
	"errors"
	"fmt"
	"testing"

	"triehash/internal/format"
	"triehash/internal/store"
	"triehash/internal/trie"
	"triehash/internal/workload"
)

// The exhaustive crash-point harness: a canonical workload runs over the
// shipped FileStore on a journaling CrashDisk; then, for every journal
// position k, the disk image a power cut at k leaves behind is
// materialized and reopened with FileStore — clean, and with the
// in-flight write torn, bit-flipped or zeroed — and the result is
// verified against the durability contract:
//
//  1. every key covered by the last successful Sync is present with a
//     value some applied operation wrote (verified differentially
//     against an in-memory model), except keys in the damaged slot's
//     pre/post-image, which may be lost only when Scrub quarantines the
//     slot (tear/flip) or the damage zeroed it beyond detection;
//  2. the reopened file passes CheckInvariants after the documented
//     recovery chain (Open with the synced metadata → Recover → Scrub);
//  3. nothing panics, and every surviving record belongs to the
//     workload's key universe.

// crashOp is one workload operation.
type crashOp struct {
	del   bool
	key   string
	value string
}

// crashSlotSize is the bucket file's slot size in the crash runs: roomy
// enough for any capacity-4 bucket in either page format, so no write
// fails and no byte budget decides a split.
const crashSlotSize = 256

// crashRun is everything the workload run recorded: the journaled disk,
// the per-op journal boundaries, and the snapshots at each Sync.
type crashRun struct {
	disk    *store.CrashDisk
	ops     []crashOp
	opStart []int // journal length when op i began
	marks   []int // journal positions of the Sync barriers
	metas   [][]byte
	snaps   []map[string]string
	// values collects every value ever written per key, with the op
	// index that wrote it, for the allowed-value check.
	values map[string][]struct {
		op    int
		value string
	}
	// deletes collects the journal start position of every delete issued
	// per key: a synced key may be absent after a crash when a delete on
	// it started between the sync and the cut.
	deletes map[string][]int
}

// crashDriver is the operation surface the crash workload drives — the
// sequential engine or the concurrent one, whose store mutation order is
// the same by construction (shared split/merge code), so the durability
// contract and recovery chain are engine-independent.
type crashDriver interface {
	Put(key string, value []byte) (bool, error)
	Delete(key string) error
	SaveMeta() []byte
}

// buildCrashRun executes the canonical workload: deterministic keys,
// inserts with periodic overwrites and deletes, a Sync every syncEvery
// operations. concurrent drives the operations through the concurrent
// engine instead of the sequential one; batchSize > 0 additionally
// issues the puts through PutBatch in groups of that size (deletes and
// syncs flush the group first), so cut positions land inside the batch
// wave's publish window — several buckets with the new twin written but
// the shrunk old image and trie flip still pending.
func buildCrashRun(t *testing.T, cfg Config, seed int64, nops, syncEvery, batchSize int, concurrent bool) *crashRun {
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
	bp, _ := f.(interface {
		PutBatch(keys []string, values [][]byte) []error
	})
	if batchSize > 0 && bp == nil {
		t.Fatal("batchSize set but the driver has no PutBatch")
	}
	keys := workload.Uniform(seed, nops, 3, 8)
	r := &crashRun{
		disk: disk,
		values: make(map[string][]struct {
			op    int
			value string
		}),
		deletes: make(map[string][]int),
	}
	model := map[string]string{}
	sync := func() {
		syncBuckets(t, disk, fs)
		r.marks = append(r.marks, disk.Journal())
		r.metas = append(r.metas, f.SaveMeta())
		snap := make(map[string]string, len(model))
		for k, v := range model {
			snap[k] = v
		}
		r.snaps = append(r.snaps, snap)
	}
	// flush issues the buffered puts as one PutBatch. Every op in the
	// batch shares the flush-time journal position as its start: any of
	// them may or may not have applied by a later cut, which is exactly
	// what the allowed-value check models.
	var buf []crashOp
	flush := func() {
		if len(buf) == 0 {
			return
		}
		start := disk.Journal()
		bk := make([]string, len(buf))
		bv := make([][]byte, len(buf))
		for j, op := range buf {
			bk[j], bv[j] = op.key, []byte(op.value)
			r.ops = append(r.ops, op)
			r.opStart = append(r.opStart, start)
			model[op.key] = op.value
			r.values[op.key] = append(r.values[op.key], struct {
				op    int
				value string
			}{len(r.ops) - 1, op.value})
		}
		for j, err := range bp.PutBatch(bk, bv) {
			if err != nil {
				t.Fatalf("batch put %q: %v", bk[j], err)
			}
		}
		buf = buf[:0]
	}
	for i := 0; i < nops; i++ {
		op := crashOp{key: keys[i], value: fmt.Sprintf("%s#%d", keys[i], i)}
		switch {
		case i%7 == 3 && i > 0:
			op = crashOp{del: true, key: keys[i-1]} // often present, sometimes not
		case i%5 == 2 && i > 10:
			op.key = keys[i-10] // overwrite
			op.value = fmt.Sprintf("%s#%d", op.key, i)
		}
		switch {
		case op.del:
			flush() // a buffered put on this key must land first
			r.ops = append(r.ops, op)
			r.opStart = append(r.opStart, disk.Journal())
			r.deletes[op.key] = append(r.deletes[op.key], disk.Journal())
			if err := f.Delete(op.key); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: delete %q: %v", i, op.key, err)
			}
			delete(model, op.key)
		case batchSize > 0:
			buf = append(buf, op)
			if len(buf) >= batchSize {
				flush()
			}
		default:
			r.ops = append(r.ops, op)
			r.opStart = append(r.opStart, disk.Journal())
			if _, err := f.Put(op.key, []byte(op.value)); err != nil {
				t.Fatalf("op %d: put %q: %v", i, op.key, err)
			}
			model[op.key] = op.value
			r.values[op.key] = append(r.values[op.key], struct {
				op    int
				value string
			}{i, op.value})
		}
		if (i+1)%syncEvery == 0 {
			flush()
			sync()
		}
	}
	flush()
	sync()
	return r
}

// syncBefore returns the snapshot, metadata and journal position of the
// last Sync at or before journal position k (nil metadata when nothing
// was synced yet).
func (r *crashRun) syncBefore(k int) (map[string]string, []byte, int) {
	snap, meta, mark := map[string]string{}, []byte(nil), 0
	for i, m := range r.marks {
		if m > k {
			break
		}
		snap, meta, mark = r.snaps[i], r.metas[i], m
	}
	return snap, meta, mark
}

// deletedBetween reports whether a delete on key started in journal
// range [mark, k]: its effect may legitimately be durable while the
// sync'd snapshot still lists the key.
func (r *crashRun) deletedBetween(key string, mark, k int) bool {
	for _, pos := range r.deletes[key] {
		if pos >= mark && pos <= k {
			return true
		}
	}
	return false
}

// allowedValues returns the set of values Get(key) may legitimately
// return at cut position k: anything an operation that had started by
// then wrote.
func (r *crashRun) allowedValues(key string, k int) map[string]bool {
	out := map[string]bool{}
	for _, w := range r.values[key] {
		if r.opStart[w.op] <= k {
			out[w.value] = true
		}
	}
	return out
}

// newCrashDisk returns a crash disk and the shipped FileStore formatted
// on its bucket file, writing pages in cfg's format.
func newCrashDisk(t *testing.T, cfg Config) (*store.CrashDisk, *store.FileStore) {
	t.Helper()
	disk := &store.CrashDisk{}
	fs, err := store.CreateMedium(disk.Buckets(), crashSlotSize)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetFormat(cfg.Format)
	return disk, fs
}

// syncBuckets syncs the bucket file and checks that the sync reached the
// disk: its last barrier must cover the whole journal.
func syncBuckets(t *testing.T, disk *store.CrashDisk, fs *store.FileStore) {
	t.Helper()
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := disk.Buckets().Synced(), disk.Journal(); got != want {
		t.Fatalf("FileStore.Sync left the bucket file's last barrier at journal %d, want %d", got, want)
	}
}

// reopenChain is the documented recovery procedure a crashed deployment
// follows: open the bucket file and reopen with the synced metadata; if
// the structure does not verify, rebuild the trie from the bucket bounds
// (Recover); if damaged slots remain, quarantine them (Scrub).
func reopenChain(cfg Config, disk *store.CrashDisk, meta []byte) (*File, *ScrubReport, error) {
	img, err := store.OpenMedium(disk.Buckets())
	if err != nil {
		return nil, nil, err
	}
	img.SetFormat(cfg.Format)
	if meta != nil {
		if f, err := Open(meta, img); err == nil {
			if f.CheckInvariants() == nil {
				return f, nil, nil
			}
		}
	}
	f, err := Recover(cfg, img)
	if err != nil {
		return nil, nil, err
	}
	if len(f.CorruptSlots()) == 0 && f.CheckInvariants() == nil {
		return f, nil, nil
	}
	return f.Scrub("")
}

// slotKeys returns the keys bucket addr holds in disk image img, or nil
// when the slot does not read back.
func slotKeys(img *store.CrashDisk, addr int32) []string {
	if addr < 0 {
		return nil
	}
	fs, err := store.OpenMedium(img.Buckets())
	if err != nil {
		return nil
	}
	b, err := fs.Read(addr)
	if err != nil {
		return nil
	}
	var out []string
	for i := 0; i < b.Len(); i++ {
		out = append(out, b.At(i).Key)
	}
	return out
}

// verifyCut reopens one power-cut image and checks the durability
// contract. kind < 0 means a clean cut (no damaged entry).
func (r *crashRun) verifyCut(t *testing.T, cfg Config, k int, kind store.CorruptKind, seed int64) {
	t.Helper()
	var img *store.CrashDisk
	damaged := int32(-1)
	if kind < 0 {
		img = r.disk.PowerCut(k)
	} else {
		img, damaged = r.disk.PowerCutDamaged(k, kind, seed)
	}
	snap, meta, mark := r.syncBefore(k)

	// Keys the damage may legitimately have destroyed: the damaged
	// slot's content just before and just after the in-flight write.
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
		// Nothing to rebuild from is acceptable only while the contract
		// demands nothing that was not excused.
		for key := range snap {
			if !excused[key] {
				t.Fatalf("cut %d kind %v: reopen failed (%v) with synced key %q at stake", k, kind, err, key)
			}
		}
		return
	}
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
			if r.deletedBetween(key, mark, k) {
				continue // an applied post-sync delete removed it
			}
			if excused[key] && (kind == store.CorruptZero || quarantined[damaged]) {
				continue // reported loss from the damaged slot
			}
			t.Fatalf("cut %d kind %v: synced key %q lost: %v (damaged slot %d, report %+v)",
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

// TestCrashPoints is the exhaustive harness: every journal position, every
// damage kind, two configurations. Short mode strides the cut positions;
// the full run visits all of them.
func TestCrashPoints(t *testing.T) {
	configs := []struct {
		name       string
		cfg        Config
		concurrent bool
		batchSize  int
	}{
		{"thcl", Config{Capacity: 4, Mode: trie.ModeTHCL}, false, 0},
		{"thcl-redist", Config{Capacity: 4, Mode: trie.ModeTHCL, Redistribution: RedistBoth, BoundPos: 4}, false, 0},
		// The pinned v1 page format: fixed-width pages, cut and reopened
		// like the default format's.
		{"thcl-v1", Config{Capacity: 4, Mode: trie.ModeTHCL, Format: format.V1}, false, 0},
		// The concurrent engine over the same journaling disk: identical
		// store mutation order means the same cuts, the same damage, the
		// same recovery chain.
		{"thcl-concurrent", Config{Capacity: 4, Mode: trie.ModeTHCL}, true, 0},
		// The batch wave prepares several splits (new twins written,
		// unreachable) before the sequential publish loop flips any of
		// them, so cuts land inside the publish window with multiple
		// pending twins at once — Recover must quarantine every one.
		{"thcl-concurrent-batch", Config{Capacity: 4, Mode: trie.ModeTHCL}, true, 8},
	}
	kinds := []store.CorruptKind{-1, store.CorruptTear, store.CorruptFlip, store.CorruptZero}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := tc.cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			r := buildCrashRun(t, cfg, 411, 160, 13, tc.batchSize, tc.concurrent)
			stride := 1
			if testing.Short() {
				stride = 7
			}
			n := r.disk.Journal()
			t.Logf("journal: %d mutations, %d syncs", n, len(r.marks))
			for k := 0; k <= n; k += stride {
				for _, kind := range kinds {
					r.verifyCut(t, cfg, k, kind, int64(k)*1000003+int64(kind))
				}
			}
			// The boundary positions always run, stride or not.
			for _, k := range []int{0, 1, n - 1, n} {
				for _, kind := range kinds {
					r.verifyCut(t, cfg, k, kind, int64(k)*999983+int64(kind))
				}
			}
		})
	}
}
