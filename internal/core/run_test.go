package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"triehash/internal/obs"
	"triehash/internal/trie"
)

// oracleNeighbors is the full-walk neighbour lookup THCL maintenance used
// before trie.RunAt: the bucket addresses whose leaves immediately precede
// and follow addr's in-order leaf run, -1 for none (an end of the file, or
// a nil leaf next door).
func oracleNeighbors(t *trie.Trie, addr int32) (pred, succ int32) {
	pred, succ = -1, -1
	prev := trie.Nil
	prevSeen := false
	inRun := false
	t.WalkLeaves(func(lp trie.LeafPos) bool {
		isAddr := !lp.Leaf.IsNil() && lp.Leaf.Addr() == addr
		if isAddr && !inRun {
			inRun = true
			if prevSeen && !prev.IsNil() {
				pred = prev.Addr()
			}
		} else if !isAddr && inRun {
			if !lp.Leaf.IsNil() {
				succ = lp.Leaf.Addr()
			}
			return false
		}
		prev, prevSeen = lp.Leaf, true
		return true
	})
	return pred, succ
}

// oracleRun is the full-walk leaf selection of the old address-only
// RepointLeaves: every leaf carrying addr, in in-order.
func oracleRun(t *trie.Trie, addr int32) []trie.LeafPos {
	var out []trie.LeafPos
	for _, lp := range t.InorderLeaves() {
		if !lp.Leaf.IsNil() && lp.Leaf.Addr() == addr {
			out = append(out, lp)
		}
	}
	return out
}

// checkRunsAgainstOracle compares trie.RunAt with the full-walk oracle for
// every live key: the run, its bucket and both neighbours (addresses, and
// the adjacent leaves' positions and paths).
func checkRunsAgainstOracle(t *testing.T, f *File, live map[string]bool) {
	t.Helper()
	all := f.trie.InorderLeaves()
	index := make(map[trie.Pos]int, len(all))
	for q, lp := range all {
		index[lp.Pos] = q
	}
	for k := range live {
		addr := f.trie.Search(k).Leaf.Addr()
		run := f.trie.RunAt(k)
		if run.Addr() != addr {
			t.Fatalf("RunAt(%q) carries bucket %d, key maps to %d", k, run.Addr(), addr)
		}
		want := oracleRun(f.trie, addr)
		if len(run.Leaves) != len(want) {
			t.Fatalf("RunAt(%q): %d leaves, oracle %d", k, len(run.Leaves), len(want))
		}
		for q := range want {
			if run.Leaves[q].Pos != want[q].Pos || !bytes.Equal(run.Leaves[q].Path, want[q].Path) {
				t.Fatalf("RunAt(%q): leaf %d is %+v %q, oracle %+v %q", k, q, run.Leaves[q].Pos, run.Leaves[q].Path, want[q].Pos, want[q].Path)
			}
		}
		pred, succ := run.Neighbors()
		if wp, ws := oracleNeighbors(f.trie, addr); pred != wp || succ != ws {
			t.Fatalf("RunAt(%q) neighbours %d/%d, oracle %d/%d", k, pred, succ, wp, ws)
		}
		first, last := index[want[0].Pos], index[want[len(want)-1].Pos]
		if first > 0 && (run.Pred.Pos != all[first-1].Pos || !bytes.Equal(run.Pred.Path, all[first-1].Path)) {
			t.Fatalf("RunAt(%q): predecessor leaf %+v, in-order %+v", k, run.Pred.Pos, all[first-1].Pos)
		}
		if last < len(all)-1 && (run.Succ.Pos != all[last+1].Pos || !bytes.Equal(run.Succ.Path, all[last+1].Path)) {
			t.Fatalf("RunAt(%q): successor leaf %+v, in-order %+v", k, run.Succ.Pos, all[last+1].Pos)
		}
	}
}

// TestRunAtMatchesFullWalk drives random THCL files through inserts,
// deletes (guaranteed-load merges and borrows) and redistribution on
// split, and checks after every burst that the run lookup agrees with the
// full-walk oracle for every live key.
func TestRunAtMatchesFullWalk(t *testing.T) {
	o := obs.New(obs.Config{})
	var hook obs.Hook
	hook.Set(o)
	for seed := int64(1); seed <= 30; seed++ {
		capacity := 2 + int(seed)%8
		cfg := Config{Capacity: capacity, Mode: trie.ModeTHCL}
		if seed%2 == 0 {
			cfg.Redistribution = RedistBoth
		}
		t.Run(fmt.Sprintf("seed%d-b%d-%v", seed, capacity, cfg.Redistribution), func(t *testing.T) {
			f := newFile(t, cfg)
			f.SetObsHook(&hook)
			rng := rand.New(rand.NewSource(seed))
			live := map[string]bool{}
			for step := 0; step < 600; step++ {
				k := modelKey(rng)
				// Grow for the first half, then lean towards deletes so
				// merges and borrows fire.
				if rng.Intn(100) < 70-step/10 || len(live) == 0 {
					if _, err := f.Put(k, nil); err != nil {
						t.Fatal(err)
					}
					live[k] = true
				} else {
					for d := range live {
						k = d
						break
					}
					if err := f.Delete(k); err != nil {
						t.Fatalf("Delete(%q): %v", k, err)
					}
					delete(live, k)
				}
				if step%50 == 49 {
					if err := f.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					checkRunsAgainstOracle(t, f, live)
				}
			}
		})
	}
	for _, ev := range []obs.EventType{obs.EvMerge, obs.EvBorrow, obs.EvRedistribution} {
		if o.EventCount(ev) == 0 {
			t.Errorf("no %v event: the run lookup was never checked after one", ev)
		}
	}
}

// deleteAllocs builds a THCL file of n keys (b=20, inserted in scattered
// order), deletes every other key of the middle third of the key order
// and returns the mean heap allocations per Delete.
func deleteAllocs(t *testing.T, n int, concurrent bool) float64 {
	t.Helper()
	f := newFile(t, Config{Capacity: 20, Mode: trie.ModeTHCL})
	put, del := f.Put, f.Delete
	if concurrent {
		e, err := NewConcurrent(f)
		if err != nil {
			t.Fatal(err)
		}
		put, del = e.Put, e.Delete
	}
	key := func(i int) string { return fmt.Sprintf("k%08d", i) }
	for i := 0; i < n; i++ {
		if _, err := put(key(i*7919%n), nil); err != nil {
			t.Fatal(err)
		}
	}
	var victims []string
	for i := n / 3; i < 2*n/3; i += 2 {
		victims = append(victims, key(i))
	}
	sort.Strings(victims)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range victims {
		if err := del(k); err != nil {
			t.Fatalf("Delete(%q): %v", k, err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(victims))
}

// TestDeleteCostFlat: an underflowing Delete finds its bucket's leaf run
// and neighbours in one root-to-leaf path plus the run, so its cost must
// not grow with the file. Walking every leaf — what THCL maintenance did
// before trie.RunAt — made allocations per Delete grow with the number of
// leaves: about 12x from 4k to 64k keys on both engines (serial 47 to
// 558, concurrent 130 to 1659), against a flat 9 to 14 with the run
// lookup.
func TestDeleteCostFlat(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		small := deleteAllocs(t, 4000, concurrent)
		mid := deleteAllocs(t, 16000, concurrent)
		large := deleteAllocs(t, 64000, concurrent)
		t.Logf("concurrent=%v: allocs per Delete at 4k/16k/64k keys: %.1f / %.1f / %.1f", concurrent, small, mid, large)
		if large > 1.5*small {
			t.Errorf("concurrent=%v: %.1f allocs per Delete at 64k keys, over 1.5x the %.1f at 4k", concurrent, large, small)
		}
	}
}
