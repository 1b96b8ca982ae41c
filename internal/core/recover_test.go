package core

import (
	"sort"
	"testing"

	"triehash/internal/store"
	"triehash/internal/trie"
)

// TestRecoverRoundTrip destroys the trie of files built under every
// configuration and rebuilds them from bucket headers alone.
func TestRecoverRoundTrip(t *testing.T) {
	for name, cfg := range configsUnderTest() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			st := store.NewMem()
			f, err := New(cfg, st)
			if err != nil {
				t.Fatal(err)
			}
			keys := randomKeys(71, 1200)
			for _, k := range keys {
				if _, err := f.Put(k, []byte("v:"+k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("pre-crash: %v", err)
			}
			before := f.Stats()

			// "Crash": the trie and all in-memory state are gone; only
			// the store survives.
			g, err := Recover(cfg, st)
			if err != nil {
				t.Fatal(err)
			}
			if g.Len() != len(keys) {
				t.Fatalf("recovered %d keys, want %d", g.Len(), len(keys))
			}
			for _, k := range keys {
				v, err := g.Get(k)
				if err != nil || string(v) != "v:"+k {
					t.Fatalf("recovered Get(%q) = %q, %v", k, v, err)
				}
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("post-recovery: %v", err)
			}
			after := g.Stats()
			if after.Buckets > before.Buckets {
				t.Errorf("recovery grew the file: %d -> %d buckets", before.Buckets, after.Buckets)
			}
			// The recovered file keeps working: insert, delete, range.
			if _, err := g.Put("zzzzzzzzzzzz", nil); err != nil { // sorts above every workload key
				t.Fatal(err)
			}
			if err := g.Delete(keys[0]); err != nil {
				t.Fatal(err)
			}
			sorted := append([]string(nil), keys[1:]...)
			sort.Strings(sorted)
			n := 0
			if err := g.Range(sorted[0], sorted[len(sorted)-1], func(string, []byte) bool {
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != len(sorted) {
				t.Fatalf("recovered range saw %d keys, want %d", n, len(sorted))
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("after post-recovery writes: %v", err)
			}
			t.Logf("%s: trie %d cells (depth %d) -> recovered %d cells (depth %d)",
				name, before.TrieCells, before.Depth, after.TrieCells, after.Depth)
		})
	}
}

// TestRecoverBetterBalanced: recovering an ascending-loaded file (a
// degenerate right-deep trie) yields a much shallower equivalent — the
// TOR83 conjecture.
func TestRecoverBetterBalanced(t *testing.T) {
	st := store.NewMem()
	f, err := New(Config{Capacity: 10, Mode: trie.ModeTHCL, SplitPos: 10}, st)
	if err != nil {
		t.Fatal(err)
	}
	keys := randomKeys(72, 2000)
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := f.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := f.Stats()
	g, err := Recover(f.Config(), st)
	if err != nil {
		t.Fatal(err)
	}
	after := g.Stats()
	if after.Depth >= before.Depth {
		t.Errorf("recovered depth %d not below original %d", after.Depth, before.Depth)
	}
	if after.Load < before.Load-0.001 {
		t.Errorf("recovery lost load: %.3f -> %.3f", before.Load, after.Load)
	}
	t.Logf("compact file recovery: depth %d -> %d, cells %d -> %d",
		before.Depth, after.Depth, before.TrieCells, after.TrieCells)
}

// TestRecoverFreesEmptyBuckets: empty buckets cannot anchor a boundary;
// recovery merges their ranges into the successor and frees them.
func TestRecoverFreesEmptyBuckets(t *testing.T) {
	st := store.NewMem()
	f, err := New(Config{Capacity: 4, Merge: MergeNone}, st)
	if err != nil {
		t.Fatal(err)
	}
	keys := randomKeys(73, 200)
	for _, k := range keys {
		if _, err := f.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Empty some buckets without merging (MergeNone keeps them).
	for _, k := range keys[:150] {
		if err := f.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	before := st.Buckets()
	g, err := Recover(Config{Capacity: 4}, st)
	if err != nil {
		t.Fatal(err)
	}
	if st.Buckets() >= before {
		t.Errorf("recovery kept all %d buckets (%d empty ones expected to go)", before, before-st.Buckets())
	}
	for _, k := range keys[150:] {
		if _, err := g.Get(k); err != nil {
			t.Fatalf("survivor %q lost: %v", k, err)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverErrors(t *testing.T) {
	// Empty store.
	if _, err := Recover(Config{Capacity: 4}, store.NewMem()); err == nil {
		t.Error("recovery from an empty store accepted")
	}
	// A store with two buckets claiming the same bound is inconsistent.
	st := store.NewMem()
	f, _ := New(Config{Capacity: 4}, st)
	for _, k := range randomKeys(75, 40) {
		f.Put(k, nil)
	}
	leaves := f.Trie().InorderLeaves()
	if len(leaves) < 4 {
		t.Fatal("setup: need several buckets")
	}
	first := leaves[0].Leaf.Addr()
	second := leaves[1].Leaf.Addr()
	b, _ := st.Read(second)
	fb, _ := st.Read(first)
	b.SetBound(fb.Bound())
	st.Write(second, b)
	if _, err := Recover(Config{Capacity: 4}, st); err == nil {
		t.Error("duplicate bounds accepted")
	}
}

// TestRecoverAfterCrashMidStream simulates the real scenario end to end
// through a persistent store: build, lose the metadata, recover, verify.
func TestRecoverPersistent(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.CreateFile(dir+"/buckets.th", 4096)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Capacity: 8, Mode: trie.ModeTHCL}
	f, err := New(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	keys := randomKeys(74, 800)
	for _, k := range keys {
		if _, err := f.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no SaveMeta. Close and reopen just the bucket file.
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := store.OpenFile(dir + "/buckets.th")
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	g, err := Recover(cfg, fs2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if v, err := g.Get(k); err != nil || string(v) != k {
			t.Fatalf("recovered Get(%q) = %q, %v", k, v, err)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverHalfFinishedSplit simulates the one crash window splits
// leave open: the new bucket was written but the old one was not yet
// shrunk (the write ordering guarantees this is the only window). The
// concurrent engine prepares splits in distinct subtree stripes in
// parallel, so a cut can leave several such twins at once; two are
// planted here, in two different buckets. Recovery detects each
// duplicate bound and drops every subset twin.
func TestRecoverHalfFinishedSplit(t *testing.T) {
	st := store.NewMem()
	cfg := Config{Capacity: 4, Mode: trie.ModeTHCL}
	f, err := New(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	keys := randomKeys(76, 100)
	for _, k := range keys {
		if _, err := f.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Fabricate the crash state: pick two full buckets and write a "new
	// twin" for each, holding its top records under the same bound, as
	// two dying splits would have left behind.
	var victims []int32
	for _, lp := range f.Trie().InorderLeaves() {
		if lp.Leaf.IsNil() {
			continue
		}
		if b, _ := st.Read(lp.Leaf.Addr()); b.Len() >= 3 {
			victims = append(victims, lp.Leaf.Addr())
			if len(victims) == 2 {
				break
			}
		}
	}
	if len(victims) < 2 {
		t.Fatal("setup: fewer than two full buckets")
	}
	var twins []int32
	for _, victim := range victims {
		vb, _ := st.Read(victim)
		twinAddr, err := st.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		twin, _ := st.Read(twinAddr)
		twin.SetBound(vb.Bound())
		twin.Put(vb.At(vb.Len()-1).Key, vb.At(vb.Len()-1).Value)
		twin.Put(vb.At(vb.Len()-2).Key, vb.At(vb.Len()-2).Value)
		if err := st.Write(twinAddr, twin); err != nil {
			t.Fatal(err)
		}
		twins = append(twins, twinAddr)
	}

	g, err := Recover(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != len(keys) {
		t.Fatalf("recovered %d keys, want %d (no loss, no duplication)", g.Len(), len(keys))
	}
	for _, k := range keys {
		if v, err := g.Get(k); err != nil || string(v) != k {
			t.Fatalf("Get(%q) = %q, %v", k, v, err)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Both twins were freed.
	for _, a := range twins {
		if _, err := st.Read(a); err == nil {
			t.Errorf("the subset twin at %d survived recovery", a)
		}
	}
}

// TestRecoverRejectsRealConflict: overlapping buckets that are not in a
// subset relation are a genuine inconsistency, not a crash artifact.
func TestRecoverRejectsRealConflict(t *testing.T) {
	st := store.NewMem()
	f, _ := New(Config{Capacity: 4}, st)
	for _, k := range randomKeys(77, 60) {
		f.Put(k, nil)
	}
	leaves := f.Trie().InorderLeaves()
	a := leaves[0].Leaf.Addr()
	ba, _ := st.Read(a)
	twinAddr, _ := st.Alloc()
	twin, _ := st.Read(twinAddr)
	twin.SetBound(ba.Bound())
	twin.Put("aaaa-not-in-a", nil) // disjoint record: no subset relation
	st.Write(twinAddr, twin)
	if _, err := Recover(Config{Capacity: 4}, st); err == nil {
		t.Error("non-subset duplicate accepted")
	}
}

// TestRecoverSweepsAbandonedSlots: when a split fails at the old-bucket
// write AND the compensating free also fails, the new bucket is left
// abandoned with duplicates of reachable records. Recover's duplicate-
// bound repair sweeps it.
func TestRecoverSweepsAbandonedSlots(t *testing.T) {
	fs := store.NewFault(store.NewMem())
	cfg := Config{Capacity: 4, Mode: trie.ModeTHCL}
	f, err := New(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	keys := randomKeys(78, 300)
	for _, k := range keys[:200] {
		mustPut(t, f, k)
	}
	// Provoke a split whose new-bucket write succeeds but whose old
	// write and compensating free both fail.
	sawAbandon := false
	for _, k := range keys[200:] {
		fs.Arm(1, false, true) // 1 successful write (the new bucket), then fail
		_, err := f.Put(k, nil)
		fs.Disarm()
		if err != nil && len(f.abandoned) > 0 {
			sawAbandon = true
			break
		}
	}
	if !sawAbandon {
		t.Skip("no split hit the double-failure window with these keys")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("live file after double failure: %v", err)
	}
	rec, err := Recover(cfg, fs)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatalf("recovered: %v", err)
	}
	if rec.Len() != f.Len() {
		t.Fatalf("recovered %d keys, live file had %d", rec.Len(), f.Len())
	}
}
