package triehash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"triehash/internal/workload"
)

// dumpFile renders every record in key order — the observational content
// two engines must agree on.
func dumpFile(t *testing.T, f *File) []string {
	t.Helper()
	var out []string
	if err := f.Range("", "", func(k string, v []byte) bool {
		out = append(out, k+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestConcurrentDifferentialIdentity drives the same single-threaded
// mixed workload through the concurrent engine and the global-lock
// oracle and requires byte-identical outcomes: same records, same
// statistics (bucket count, trie cells, depth — the file's shape), and
// the same serialized metadata. With one thread the concurrent engine's
// re-validation paths never fire, so any divergence is a bug in the
// engine, not a legal interleaving.
func TestConcurrentDifferentialIdentity(t *testing.T) {
	opts := Options{BucketCapacity: 8}
	seq, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	opts.Concurrent = true
	conc, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()

	rng := rand.New(rand.NewSource(87))
	universe := workload.Uniform(87, 900, 2, 8)
	for step := 0; step < 8000; step++ {
		k := universe[rng.Intn(len(universe))]
		if rng.Intn(10) < 7 {
			v := []byte(fmt.Sprintf("v%d", step))
			if err := seq.Put(k, v); err != nil {
				t.Fatalf("step %d: oracle Put: %v", step, err)
			}
			if err := conc.Put(k, v); err != nil {
				t.Fatalf("step %d: concurrent Put: %v", step, err)
			}
		} else {
			e1, e2 := seq.Delete(k), conc.Delete(k)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: Delete(%q) diverged: oracle %v, concurrent %v", step, k, e1, e2)
			}
		}
		if step%997 == 0 {
			s1, s2 := seq.Stats(), conc.Stats()
			if s1.Keys != s2.Keys || s1.Buckets != s2.Buckets || s1.TrieCells != s2.TrieCells || s1.Depth != s2.Depth {
				t.Fatalf("step %d: shape diverged: oracle %+v, concurrent %+v", step, s1, s2)
			}
		}
	}
	if got, want := dumpFile(t, conc), dumpFile(t, seq); len(got) != len(want) {
		t.Fatalf("record counts diverged: concurrent %d, oracle %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d diverged: concurrent %q, oracle %q", i, got[i], want[i])
			}
		}
	}
	if err := conc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fMeta(seq), fMeta(conc)) {
		t.Fatal("serialized metadata diverged between the engines")
	}
}

// TestConcurrentParallelStress hammers one concurrent file from many
// goroutines under -race: each worker owns a disjoint key range it
// inserts, overwrites, reads back and deletes (so values are verifiable),
// while every worker also churns a shared hot range for contention on
// the same buckets, splits and merges. The file must stay invariant-clean
// and serve exactly the surviving records.
func TestConcurrentParallelStress(t *testing.T) {
	f, err := Create(Options{BucketCapacity: 8, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const (
		workers = 8
		perW    = 300
	)
	hot := workload.Uniform(99, 64, 2, 5)
	var wg sync.WaitGroup
	var fail atomic.Value // first error, if any
	report := func(err error) {
		if err != nil {
			fail.CompareAndSwap(nil, err)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			mine := make([]string, perW)
			for i := range mine {
				mine[i] = fmt.Sprintf("w%02d.%06d", w, i)
			}
			// Insert everything, re-reading as we go.
			for i, k := range mine {
				if err := f.Put(k, []byte(fmt.Sprintf("%d", i))); err != nil {
					report(fmt.Errorf("put %q: %w", k, err))
					return
				}
				if v, err := f.Get(k); err != nil || string(v) != fmt.Sprintf("%d", i) {
					report(fmt.Errorf("readback %q = %q, %v", k, v, err))
					return
				}
				h := hot[rng.Intn(len(hot))]
				switch rng.Intn(3) {
				case 0:
					if err := f.Put(h, []byte("hot")); err != nil {
						report(fmt.Errorf("hot put %q: %w", h, err))
						return
					}
				case 1:
					if _, err := f.Get(h); err != nil && !errors.Is(err, ErrNotFound) {
						report(fmt.Errorf("hot get %q: %w", h, err))
						return
					}
				default:
					if err := f.Delete(h); err != nil && !errors.Is(err, ErrNotFound) {
						report(fmt.Errorf("hot delete %q: %w", h, err))
						return
					}
				}
			}
			// Delete the odd half — merge pressure — and verify the split.
			for i, k := range mine {
				if i%2 == 1 {
					if err := f.Delete(k); err != nil {
						report(fmt.Errorf("delete %q: %w", k, err))
						return
					}
				}
			}
			for i, k := range mine {
				v, err := f.Get(k)
				if i%2 == 1 {
					if !errors.Is(err, ErrNotFound) {
						report(fmt.Errorf("deleted %q still = %q, %v", k, v, err))
						return
					}
					continue
				}
				if err != nil || string(v) != fmt.Sprintf("%d", i) {
					report(fmt.Errorf("final %q = %q, %v", k, v, err))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err, _ := fail.Load().(error); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every surviving per-worker key, and nothing outside the universes.
	want := workers * perW / 2
	got := 0
	if err := f.Range("", "", func(k string, _ []byte) bool {
		if len(k) == 10 && k[0] == 'w' && k[3] == '.' { // w%02d.%06d
			got++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("surviving worker keys = %d, want %d", got, want)
	}
	if l, s := f.Len(), f.Stats().Keys; l != s {
		t.Fatalf("Len %d disagrees with Stats.Keys %d", l, s)
	}
}

// TestConcurrentBatchSplitDifferential drives prefix-partitioned PutBatch
// rounds — splits in several disjoint subtrees per round, each
// overflowing record running putSlow's prepareSplit-under-latch /
// finishSplit-under-flip-lock path after the fast wave — interleaved
// with single puts and deletes, through the concurrent engine and the
// oracle, single-threaded. The comparison is content-level (records, key
// count, invariants, bucket and cell counts), not serialized metadata:
// the batch applies every record that fits before its first split while
// the oracle's loop splits in key-arrival order, so new-bucket addresses
// legitimately differ while everything observable agrees.
func TestConcurrentBatchSplitDifferential(t *testing.T) {
	opts := Options{BucketCapacity: 8}
	seq, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	opts.Concurrent = true
	conc, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()

	rng := rand.New(rand.NewSource(53))
	universe := workload.Uniform(53, 400, 2, 8)
	for round := 0; round < 12; round++ {
		var bk []string
		var bv [][]byte
		for _, p := range []string{"qa", "qb", "qc", "qd", "qe", "qf"} {
			for j := 0; j < 25; j++ {
				bk = append(bk, fmt.Sprintf("%s.%03d.%02d", p, round, j))
				bv = append(bv, []byte(fmt.Sprintf("b%d.%d", round, j)))
			}
		}
		// No in-batch duplicates here: the oracle loop inserts a
		// duplicate's first occurrence early and replaces it later, while
		// the batch engine skips superseded occurrences up front —
		// shifting which key is the Capacity+1'th at an overflow and
		// with it the split string. Content still agrees (TestConcurrentBatch
		// covers it); the shape comparison below would not.
		for i, err := range seq.PutBatch(bk, bv) {
			if err != nil {
				t.Fatalf("round %d: oracle PutBatch[%q]: %v", round, bk[i], err)
			}
		}
		for i, err := range conc.PutBatch(bk, bv) {
			if err != nil {
				t.Fatalf("round %d: concurrent PutBatch[%q]: %v", round, bk[i], err)
			}
		}
		for step := 0; step < 300; step++ {
			k := universe[rng.Intn(len(universe))]
			if rng.Intn(10) < 6 {
				v := []byte(fmt.Sprintf("v%d.%d", round, step))
				if err := seq.Put(k, v); err != nil {
					t.Fatal(err)
				}
				if err := conc.Put(k, v); err != nil {
					t.Fatal(err)
				}
			} else {
				e1, e2 := seq.Delete(k), conc.Delete(k)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("round %d: Delete(%q) diverged: %v vs %v", round, k, e1, e2)
				}
			}
		}
		s1, s2 := seq.Stats(), conc.Stats()
		if s1.Keys != s2.Keys || s1.Buckets != s2.Buckets || s1.TrieCells != s2.TrieCells {
			t.Fatalf("round %d: shape diverged: oracle %+v, concurrent %+v", round, s1, s2)
		}
	}
	if got, want := dumpFile(t, conc), dumpFile(t, seq); len(got) != len(want) {
		t.Fatalf("record counts diverged: concurrent %d, oracle %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d diverged: concurrent %q, oracle %q", i, got[i], want[i])
			}
		}
	}
	if err := conc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDisjointSubtreeSplits hammers splits in disjoint trie
// subtrees from many goroutines at once — the workload the subtree
// stripes exist for. Each worker owns a distinct three-digit prefix (its
// own stripe key, up to hash collisions), inserts enough fresh keys to
// split its subtree over and over — half through Put, half through
// PutBatch, whose overflowing records split through the same putSlow —
// while a scanner goroutine runs Range end to end, racing the flip-lock
// readers against concurrent publications: a scan must never observe a
// half-installed split (a missing or duplicated record would surface as
// a count mismatch or an invariant violation).
func TestConcurrentDisjointSubtreeSplits(t *testing.T) {
	f, err := Create(Options{BucketCapacity: 8, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const (
		workers = 8
		perW    = 600
	)
	var wg sync.WaitGroup
	var fail atomic.Value
	report := func(err error) {
		if err != nil {
			fail.CompareAndSwap(nil, err)
		}
	}
	done := make(chan struct{})
	var scanWg sync.WaitGroup
	// The scanner: full-range scans while the splits land. Counts are
	// momentary, but every record visited must be well-formed and no scan
	// may error or see a key twice.
	scanWg.Add(1)
	go func() {
		defer scanWg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			prev := ""
			n := 0
			if err := f.Range("", "", func(k string, _ []byte) bool {
				if prev != "" && k <= prev {
					report(fmt.Errorf("scan out of order: %q after %q", k, prev))
					return false
				}
				prev = k
				n++
				return true
			}); err != nil {
				report(fmt.Errorf("mid-traffic Range: %w", err))
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prefix := fmt.Sprintf("%c%c%c", 'a'+w, 'a'+w, 'a'+w)
			// Half through single Puts (putSlow's stripe+latch split)...
			for i := 0; i < perW/2; i++ {
				k := fmt.Sprintf("%s.%06d", prefix, i)
				if err := f.Put(k, []byte{byte(w)}); err != nil {
					report(fmt.Errorf("put %q: %w", k, err))
					return
				}
			}
			// ...and half through PutBatch (the fast wave, then putSlow).
			bk := make([]string, perW/2)
			bv := make([][]byte, perW/2)
			for i := range bk {
				bk[i] = fmt.Sprintf("%s.%06d", prefix, perW/2+i)
				bv[i] = []byte{byte(w)}
			}
			for i, err := range f.PutBatch(bk, bv) {
				if err != nil {
					report(fmt.Errorf("putbatch %q: %w", bk[i], err))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	scanWg.Wait()
	if err, _ := fail.Load().(error); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := f.Len(), workers*perW; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	got := 0
	if err := f.Range("", "", func(k string, _ []byte) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != workers*perW {
		t.Fatalf("final scan saw %d records, want %d", got, workers*perW)
	}
}

// TestConcurrentDeleteMergeStress empties a well-split file from many
// goroutines at once: deletions drive guarded merging (the two-latch
// path) concurrently until almost nothing is left.
func TestConcurrentDeleteMergeStress(t *testing.T) {
	f, err := Create(Options{BucketCapacity: 8, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ks := workload.Uniform(7, 4000, 3, 9)
	for _, k := range ks {
		if err := f.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	before := f.Stats().Buckets
	var wg sync.WaitGroup
	var firstErr atomic.Value
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ks); i += workers {
				if err := f.Delete(ks[i]); err != nil && !errors.Is(err, ErrNotFound) {
					firstErr.CompareAndSwap(nil, fmt.Errorf("delete %q: %w", ks[i], err))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 {
		t.Fatalf("%d records survive a full deletion", f.Len())
	}
	after := f.Stats().Buckets
	if after >= before/2 {
		t.Errorf("merging freed too little: %d buckets before, %d after", before, after)
	}
}

// TestConcurrentBatch checks the engine-level batch paths: PutBatch with
// in-batch duplicates (last wins), GetBatch alignment, and concurrent
// batches from several goroutines racing on overlapping buckets.
func TestConcurrentBatch(t *testing.T) {
	f, err := Create(Options{BucketCapacity: 8, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ks := workload.Uniform(21, 2000, 3, 9)
	vs := make([][]byte, len(ks))
	for i := range ks {
		vs[i] = []byte(fmt.Sprintf("v%d", i))
	}
	// A duplicate: the later value must win, exactly as a serial loop.
	keys := append(append([]string{}, ks...), ks[0])
	vals := append(append([][]byte{}, vs...), []byte("winner"))
	for i, err := range f.PutBatch(keys, vals) {
		if err != nil {
			t.Fatalf("PutBatch[%d] (%q): %v", i, keys[i], err)
		}
	}
	if v, err := f.Get(ks[0]); err != nil || string(v) != "winner" {
		t.Fatalf("duplicate key resolved to %q, %v; want the later value", v, err)
	}
	got, errs := f.GetBatch(append([]string{"absent!"}, ks...))
	if !errors.Is(errs[0], ErrNotFound) {
		t.Fatalf("GetBatch miss: %v", errs[0])
	}
	for i := range ks {
		want := string(vs[i])
		if i == 0 {
			want = "winner"
		}
		if errs[i+1] != nil || string(got[i+1]) != want {
			t.Fatalf("GetBatch[%q] = %q, %v; want %q", ks[i], got[i+1], errs[i+1], want)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Racing batches over one shared key space.
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			bk := make([]string, 200)
			bv := make([][]byte, 200)
			for i := range bk {
				bk[i] = ks[rng.Intn(len(ks))]
				bv[i] = []byte(fmt.Sprintf("w%d", w))
			}
			if w%2 == 0 {
				for i, err := range f.PutBatch(bk, bv) {
					if err != nil {
						firstErr.CompareAndSwap(nil, fmt.Errorf("PutBatch %q: %w", bk[i], err))
						return
					}
				}
			} else {
				_, gerrs := f.GetBatch(bk)
				for i, err := range gerrs {
					if err != nil && !errors.Is(err, ErrNotFound) {
						firstErr.CompareAndSwap(nil, fmt.Errorf("GetBatch %q: %w", bk[i], err))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBatchDuringSplits races batches against splits: two
// writers keep splitting buckets with single Puts while a third runs
// PutBatch, and GetBatch must never miss one of the stable keys stored
// before the race began, however often their buckets split under it.
func TestConcurrentBatchDuringSplits(t *testing.T) {
	f, err := Create(Options{BucketCapacity: 4, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A six-letter alphabet and short keys: buckets split often and many
	// keys share one, so batches group several keys per bucket.
	randKeys := func(rng *rand.Rand, n int) []string {
		out := make([]string, n)
		for i := range out {
			kb := make([]byte, 1+rng.Intn(6))
			for j := range kb {
				kb[j] = byte('a' + rng.Intn(6))
			}
			out[i] = string(kb)
		}
		return out
	}
	stable := randKeys(rand.New(rand.NewSource(7)), 400)
	sv := make([][]byte, len(stable))
	for i := range sv {
		sv[i] = []byte("s")
	}
	for i, err := range f.PutBatch(stable, sv) {
		if err != nil {
			t.Fatalf("PutBatch(%q): %v", stable[i], err)
		}
	}
	splits := f.Stats().Splits
	var fail atomic.Value
	report := func(err error) { fail.CompareAndSwap(nil, err) }
	var wg, writers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := randKeys(rng, 1)[0]
				if err := f.Put(k, []byte("w")); err != nil {
					report(fmt.Errorf("Put(%q): %w", k, err))
					return
				}
			}
		}(int64(w) + 31)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				vals, errs := f.GetBatch(stable)
				for i := range stable {
					if errs[i] != nil || vals[i] == nil {
						report(fmt.Errorf("stable key %q lost during splits: %v", stable[i], errs[i]))
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(97))
		for round := 0; round < 30; round++ {
			ks := randKeys(rng, 100)
			vs := make([][]byte, len(ks))
			for i := range vs {
				vs[i] = []byte("b")
			}
			for i, err := range f.PutBatch(ks, vs) {
				if err != nil {
					report(fmt.Errorf("PutBatch(%q): %w", ks[i], err))
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	writers.Wait()
	if err, _ := fail.Load().(error); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Splits == splits {
		t.Fatal("no bucket split during the race")
	}
	for _, k := range stable {
		if _, err := f.Get(k); err != nil {
			t.Fatalf("stable key %q unreachable after the race: %v", k, err)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPersistence round-trips a concurrent file through disk:
// create, load, close, reopen concurrent (OpenAtWith), reopen sequential
// (plain OpenAt), and scrub a healthy file to a clean report.
func TestConcurrentPersistence(t *testing.T) {
	dir := t.TempDir()
	f, err := CreateAt(dir, Options{BucketCapacity: 8, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.Uniform(31, 500, 3, 9)
	for i, k := range ks {
		if err := f.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := f.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("healthy scrub quarantined %v", rep.Quarantined)
	}
	if err := f.Put("after-scrub", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := OpenAtWith(dir, Options{Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != len(ks)+1 {
		t.Fatalf("reopened concurrent Len = %d, want %d", g.Len(), len(ks)+1)
	}
	for i, k := range ks {
		if v, err := g.Get(k); err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("reopened Get(%q) = %q, %v", k, v, err)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	h, err := OpenAt(dir) // the same file serves fine under the global lock
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Len() != len(ks)+1 {
		t.Fatalf("reopened sequential Len = %d", h.Len())
	}
}

// TestConcurrentOptionGates verifies every configuration the concurrent
// engine refuses, and that the refusals are errors, not panics.
func TestConcurrentOptionGates(t *testing.T) {
	for name, opts := range map[string]Options{
		"basic-variant": {Concurrent: true, Variant: TH},
		"redist":        {Concurrent: true, Redistribution: RedistBoth},
		"collapse":      {Concurrent: true, Redistribution: RedistSuccessor, CollapseOnMerge: true},
		"rotations":     {Concurrent: true, Variant: TH, RotationMerges: true},
		"tombstones":    {Concurrent: true, TombstoneMerges: true},
		"multilevel":    {Concurrent: true, PageCapacity: 16},
	} {
		if f, err := Create(opts); err == nil {
			f.Close()
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestConcurrentRangeDuringOverwrites: on an on-disk concurrent file, a
// Range reads buckets under the flip lock while fast-path Puts rewrite
// the same slots under their bucket latches alone, so a bucket read can
// overlap the write of its slot. Neither side may fail, and no slot may
// be marked damaged: every key reads its last value afterwards. Run with
// and without a buffer pool.
func TestConcurrentRangeDuringOverwrites(t *testing.T) {
	const nkeys, writes = 200, 20000
	for _, frames := range []int{0, 4} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			f, err := CreateAt(t.TempDir(), Options{BucketCapacity: 20, Concurrent: true, CacheFrames: frames})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			value := func(i int) []byte { return []byte(fmt.Sprintf("%-100d", i)) }
			for k := 0; k < nkeys; k++ {
				if err := f.Put(fmt.Sprintf("key%03d", k), value(k)); err != nil {
					t.Fatal(err)
				}
			}
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer done.Store(true)
				for i := nkeys; i < nkeys+writes; i++ {
					if err := f.Put(fmt.Sprintf("key%03d", i%nkeys), value(i)); err != nil {
						t.Errorf("Put %d: %v", i, err)
						return
					}
				}
			}()
			ranges := 0
			for !done.Load() {
				if err := f.Range("", "", func(string, []byte) bool { return true }); err != nil {
					t.Errorf("Range %d: %v", ranges, err)
					break
				}
				ranges++
			}
			wg.Wait()
			for k := 0; k < nkeys; k++ {
				last := writes + k // the last i below nkeys+writes with i%nkeys == k
				if v, err := f.Get(fmt.Sprintf("key%03d", k)); err != nil || !bytes.Equal(v, value(last)) {
					t.Fatalf("Get(key%03d) = %q, %v; want the value of write %d", k, v, err, last)
				}
			}
			t.Logf("%d ranges beside %d overwrites", ranges, writes)
		})
	}
}
