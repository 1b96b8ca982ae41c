package mlth

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"triehash/internal/store"
	"triehash/internal/trie"
)

// TestPagingEquivalence: paging is purely physical — files with tiny page
// capacities and one whose trie never pages must stay observationally
// identical under any operation sequence, and end with the same buckets
// under the same bounds. This pins the page-split machinery (split-node
// choice, in-order trie splitting, cross-page search state) and the
// seeking cross-page walk (Range, the THCL boundary split) against the
// unpaged ground truth.
func TestPagingEquivalence(t *testing.T) {
	for _, mode := range []trie.Mode{trie.ModeBasic, trie.ModeTHCL} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			mk := func(pageCap int) *File {
				f, err := New(Config{Capacity: 4, PageCapacity: pageCap, Mode: mode}, store.NewMem())
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			files := map[string]*File{
				"page5":   mk(5),
				"page9":   mk(9),
				"unpaged": mk(1 << 20),
			}
			rng := rand.New(rand.NewSource(101))
			randKey := func() string {
				kb := make([]byte, 1+rng.Intn(6))
				for i := range kb {
					kb[i] = byte('a' + rng.Intn(5))
				}
				return string(kb)
			}
			for step := 0; step < 4000; step++ {
				k := randKey()
				switch rng.Intn(11) {
				case 0, 1, 2, 3, 4, 5:
					for name, f := range files {
						if _, err := f.Put(k, []byte(k)); err != nil {
							t.Fatalf("step %d %s Put(%q): %v", step, name, k, err)
						}
					}
				case 6, 7:
					var want []byte
					var wantErr error
					first := true
					for name, f := range files {
						v, err := f.Get(k)
						if first {
							want, wantErr, first = v, err, false
							continue
						}
						if (err == nil) != (wantErr == nil) || string(v) != string(want) {
							t.Fatalf("step %d %s Get(%q) diverges: %q,%v vs %q,%v",
								step, name, k, v, err, want, wantErr)
						}
					}
				case 8:
					to := ""
					if rng.Intn(2) == 0 {
						to = randKey()
					}
					limit := 1 + rng.Intn(20)
					var want string
					first := true
					for name, f := range files {
						var got []string
						if err := f.Range(k, to, func(key string, v []byte) bool {
							got = append(got, key+"="+string(v))
							return len(got) < limit
						}); err != nil {
							t.Fatalf("step %d %s Range(%q, %q): %v", step, name, k, to, err)
						}
						if first {
							want, first = fmt.Sprint(got), false
							continue
						}
						if fmt.Sprint(got) != want {
							t.Fatalf("step %d %s Range(%q, %q) stop %d diverges: %v vs %s",
								step, name, k, to, limit, got, want)
						}
					}
				default:
					var wantErr error
					first := true
					for name, f := range files {
						err := f.Delete(k)
						if first {
							wantErr, first = err, false
							continue
						}
						if (err == nil) != (wantErr == nil) {
							t.Fatalf("step %d %s Delete(%q) diverges: %v vs %v", step, name, k, err, wantErr)
						}
						if err != nil && !errors.Is(err, ErrNotFound) {
							t.Fatalf("step %d %s Delete(%q): %v", step, name, k, err)
						}
					}
				}
			}
			// Final states agree completely: count, full ordered scan.
			var scans = map[string][]string{}
			for name, f := range files {
				var got []string
				if err := f.Range("a", "", func(k string, _ []byte) bool {
					got = append(got, k)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				scans[name] = got
				if err := f.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if fmt.Sprint(scans["page5"]) != fmt.Sprint(scans["unpaged"]) ||
				fmt.Sprint(scans["page9"]) != fmt.Sprint(scans["unpaged"]) {
				t.Fatalf("final scans diverge: %d/%d/%d keys",
					len(scans["page5"]), len(scans["page9"]), len(scans["unpaged"]))
			}
			// Same buckets in the same order under the same bounds: the
			// seeking THCL split placed every boundary exactly where the
			// unpaged split did.
			for _, name := range []string{"page5", "page9"} {
				if got, want := bucketLayout(t, files[name]), bucketLayout(t, files["unpaged"]); got != want {
					t.Fatalf("%s bucket layout diverges from unpaged:\n%s\nvs\n%s", name, got, want)
				}
			}
			// The paged files really did page.
			if files["page5"].Levels() < 2 || files["page9"].Levels() < 2 {
				t.Fatalf("paged files did not page: levels %d/%d",
					files["page5"].Levels(), files["page9"].Levels())
			}
			t.Logf("%s: %d keys; levels page5=%d page9=%d unpaged=%d",
				mode, files["unpaged"].Len(),
				files["page5"].Levels(), files["page9"].Levels(), files["unpaged"].Levels())
		})
	}
}

// bucketLayout renders the file's buckets in key order: each bucket's
// address, stored bound and keys.
func bucketLayout(t *testing.T, f *File) string {
	t.Helper()
	var out strings.Builder
	last := int32(-1)
	f.walkFrom("", false, func(fl fileLeaf) bool {
		if fl.leaf.IsNil() || fl.leaf.Addr() == last {
			return true
		}
		last = fl.leaf.Addr()
		b, err := f.Store().Read(last)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%d %q %v\n", last, b.Bound(), b.Keys())
		return true
	})
	return out.String()
}
