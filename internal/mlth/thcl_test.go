package mlth

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"

	"triehash/internal/store"
	"triehash/internal/trie"
)

// TestTHCLAgainstModel shadows random traffic on multilevel THCL files —
// the variant the paper's conclusion asks for.
func TestTHCLAgainstModel(t *testing.T) {
	for _, cfg := range []Config{
		{Capacity: 4, PageCapacity: 9, Mode: trie.ModeTHCL},
		{Capacity: 4, PageCapacity: 5, Mode: trie.ModeTHCL},
		{Capacity: 8, PageCapacity: 16, Mode: trie.ModeTHCL, SplitPos: 4, BoundPos: 5},
		{Capacity: 6, PageCapacity: 12, Mode: trie.ModeTHCL, SplitPos: 6},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("b%d-p%d-m%d", cfg.Capacity, cfg.PageCapacity, cfg.SplitPos), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			f := newFile(t, cfg)
			model := map[string]string{}
			for step := 0; step < 3000; step++ {
				n := 1 + rng.Intn(6)
				kb := make([]byte, n)
				for i := range kb {
					kb[i] = byte('a' + rng.Intn(5))
				}
				k := string(kb)
				switch op := rng.Intn(10); {
				case op < 6:
					v := fmt.Sprintf("v%d", step)
					replaced, err := f.Put(k, []byte(v))
					if err != nil {
						t.Fatalf("step %d Put(%q): %v", step, k, err)
					}
					if _, had := model[k]; had != replaced {
						t.Fatalf("step %d Put(%q) replaced=%v", step, k, replaced)
					}
					model[k] = v
				case op < 8:
					v, err := f.Get(k)
					want, had := model[k]
					switch {
					case had && (err != nil || string(v) != want):
						t.Fatalf("step %d Get(%q) = %q,%v want %q", step, k, v, err, want)
					case !had && !errors.Is(err, ErrNotFound):
						t.Fatalf("step %d Get(%q): %v", step, k, err)
					}
				default:
					err := f.Delete(k)
					_, had := model[k]
					switch {
					case had && err != nil:
						t.Fatalf("step %d Delete(%q): %v", step, k, err)
					case !had && !errors.Is(err, ErrNotFound):
						t.Fatalf("step %d Delete(%q): %v", step, k, err)
					}
					delete(model, k)
				}
				if step%500 == 499 {
					if err := f.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v\n%s", step, err, f.DumpPages())
					}
				}
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if f.Len() != len(model) {
				t.Fatalf("file %d keys, model %d", f.Len(), len(model))
			}
			// Ordered scan agrees with the model.
			var got []string
			f.Range("a", "", func(k string, _ []byte) bool { got = append(got, k); return true })
			var want []string
			for k := range model {
				want = append(want, k)
			}
			sort.Strings(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("scan %d keys, model %d", len(got), len(want))
			}
		})
	}
}

// TestTHCLCompactMultilevel is the paper's future-work headline: a compact
// (100% loaded) file whose trie is paged into a multilevel hierarchy —
// controlled load at beyond-main-memory scale.
func TestTHCLCompactMultilevel(t *testing.T) {
	b := 10
	f := newFile(t, Config{Capacity: b, PageCapacity: 32, Mode: trie.ModeTHCL, SplitPos: b})
	keys := randomKeys(18, 4000)
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := f.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Load < 0.99 {
		t.Errorf("multilevel compact load %.3f, want ~1.0", st.Load)
	}
	if st.Levels < 2 {
		t.Errorf("levels = %d; the trie should have paged", st.Levels)
	}
	if st.NilLeaves != 0 {
		t.Errorf("THCL created %d nil leaves", st.NilLeaves)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Two-level access cost still holds for the compact file.
	if st.Levels == 2 {
		f.ResetPageReads()
		f.Store().ResetCounters()
		for _, k := range keys[:200] {
			if _, err := f.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		if pr, br := f.PageReads(), f.Store().Counters().Reads; pr != 200 || br != 200 {
			t.Errorf("compact two-level search cost: %d page + %d bucket reads / 200", pr, br)
		}
	}
	t.Logf("compact multilevel: load=%.3f levels=%d pages=%d cells=%d",
		st.Load, st.Levels, st.Pages, st.TrieCells)
}

// TestTHCLDeterministic50Multilevel: the 50% guarantee survives paging.
func TestTHCLDeterministic50Multilevel(t *testing.T) {
	b := 10
	m := b / 2
	f := newFile(t, Config{Capacity: b, PageCapacity: 24, Mode: trie.ModeTHCL, SplitPos: m, BoundPos: m + 1})
	keys := randomKeys(19, 3000)
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := f.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Load < 0.47 || st.Load > 0.56 {
		t.Errorf("deterministic multilevel load %.3f, want ~0.50", st.Load)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTHCLPersistMultilevel round-trips a multilevel THCL file.
func TestTHCLPersistMultilevel(t *testing.T) {
	st := store.NewMem()
	cfg := Config{Capacity: 6, PageCapacity: 10, Mode: trie.ModeTHCL}
	f, err := New(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	keys := randomKeys(20, 800)
	for _, k := range keys {
		if _, err := f.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	meta := f.SaveMeta()
	g, err := Open(meta, st)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != len(keys) || g.Levels() != f.Levels() {
		t.Fatalf("reopened: %d keys %d levels, want %d/%d", g.Len(), g.Levels(), len(keys), f.Levels())
	}
	for _, k := range keys[:200] {
		if v, err := g.Get(k); err != nil || string(v) != k {
			t.Fatalf("reopened Get(%q) = %q, %v", k, v, err)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistModeRecord reopens multilevel files through their mode
// record and through a meta written before the record existed (the same
// meta with the record cut off): the split mode and bounding position must
// survive, and a legacy meta must read as THCL exactly when a bucket has
// two leaves. Every reopened file then grows through more splits.
func TestPersistModeRecord(t *testing.T) {
	for _, cfg := range []Config{
		{Capacity: 6, PageCapacity: 10, Mode: trie.ModeTHCL},
		{Capacity: 8, PageCapacity: 16, Mode: trie.ModeTHCL, SplitPos: 4, BoundPos: 5},
		{Capacity: 6, PageCapacity: 10, Mode: trie.ModeBasic},
	} {
		st := store.NewMem()
		f, err := New(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		keys := randomKeys(21, 1200)
		for _, k := range keys[:800] {
			if _, err := f.Put(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		if shared := f.sharesLeaves(); shared != (cfg.Mode == trie.ModeTHCL) {
			t.Fatalf("%+v: shared leaves %v", cfg, shared)
		}
		meta := f.SaveMeta()
		body := meta[:len(meta)-4-modeRecordLen]
		legacy := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		for name, m := range map[string][]byte{"record": meta, "legacy": legacy} {
			g, err := Open(m, st)
			if err != nil {
				t.Fatal(err)
			}
			want := f.cfg
			if name == "legacy" {
				want.BoundPos = want.Capacity + 1 // not recorded: the default
			}
			if g.cfg.Mode != want.Mode || g.cfg.BoundPos != want.BoundPos {
				t.Fatalf("%+v, %s meta: reopened as mode %v bound position %d, want %v %d",
					cfg, name, g.cfg.Mode, g.cfg.BoundPos, want.Mode, want.BoundPos)
			}
		}
		g, err := Open(meta, st)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys[800:] {
			if _, err := g.Put(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}
