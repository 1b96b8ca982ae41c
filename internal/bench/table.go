// Package bench contains one runner per figure and quantitative claim of
// the paper's evaluation. Each runner rebuilds the experiment — workload,
// parameter sweep, method under test and baseline — and reports a Table of
// the same rows or series the paper shows, so `cmd/thbench` and the
// `go test -bench` targets regenerate every result. EXPERIMENTS.md records
// paper-versus-measured for each runner.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's output: a titled grid of cells plus free-form
// notes (the claims the table supports or refutes).
type Table struct {
	ID      string // experiment id, e.g. "fig10"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each value: floats with three
// decimals, everything else via %v.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		case float32:
			row[i] = fmt.Sprintf("%.3f", x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a formatted note line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated rows prefixed by the
// experiment id, ready for plotting tools; notes become comment lines.
func (t *Table) CSV() string {
	var b strings.Builder
	quote := func(c string) string {
		if strings.ContainsAny(c, ",\"\n") {
			return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		return c
	}
	row := func(cells []string) {
		b.WriteString(t.ID)
		for _, c := range cells {
			b.WriteByte(',')
			b.WriteString(quote(c))
		}
		b.WriteByte('\n')
	}
	row(t.Headers)
	for _, r := range t.Rows {
		row(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s: %s\n", t.ID, n)
	}
	return b.String()
}

// Experiment couples a runner with its identity for the registry.
type Experiment struct {
	ID    string
	Title string
	Run   func() *Table
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "Example file: Knuth's 31 words, b=4, m=3 (Figs 1-2)", Fig1Example},
		{"fig3", "Bucket split of the example file on key 'hat' (Fig 3)", Fig3Split},
		{"fig4", "Trie split into pages, b'=9 (Fig 4)", Fig4TrieSplit},
		{"fig5", "Basic TH, expected ascending insertions, m=b (Fig 5)", Fig5AscendingBasic},
		{"fig6", "Basic TH, expected descending insertions, m=1 (Fig 6)", Fig6DescendingBasic},
		{"fig7", "THCL split without nil nodes (Fig 7)", Fig7NoNilNodes},
		{"fig8", "THCL controlled splitting, descending (Fig 8)", Fig8ControlledSplit},
		{"fig9", "Redistribution that can shrink the trie (Fig 9)", Fig9Redistribution},
		{"fig10", "THCL ascending insertions: a%, M, N versus d (Fig 10)", Fig10Ascending},
		{"fig11", "THCL descending insertions: a%, M, N versus d (Fig 11)", Fig11Descending},
		{"sec31-load", "Random insertions: load factor and nil leaves (Sec 3.1)", Sec31RandomLoad},
		{"sec31-size", "Trie size versus B-tree branching space (Sec 3.1)", Sec31TrieVsBTreeSize},
		{"sec32-ordered", "Unexpected ordered insertions: TH versus B-tree (Sec 3.2)", Sec32UnexpectedOrdered},
		{"sec32-pages", "MLTH page load factors (Sec 3.2)", Sec32PageLoad},
		{"sec45-control", "THCL guaranteed loads and redistribution (Sec 4.5)", Sec45ControlledLoad},
		{"sec33-delete", "Deletions: merges and the 50% guarantee (Secs 3.3, 4.3)", Sec33Deletions},
		{"sec5-access", "Disk accesses per search: TH, MLTH, B-tree (Sec 5)", Sec5AccessCounts},
		{"sec26-balance", "Trie balancing (Sec 2.6)", Sec26Balancing},
		{"sec6-reconstruct", "Trie reconstruction from logical paths (Sec 6 / TOR83)", Sec6Reconstruction},
		{"sec31-capacity", "Addressing capacity of in-core and paged tries (Secs 3.1, 5)", Sec31Capacity},
		{"sec23-positioning", "TH vs linear hashing: order support at hash cost (Sec 2.3)", Sec23Positioning},
		{"ablation-splits", "Ablation: split determinism, nil-node policy, collapse (Sec 4 design choices)", AblationSplits},
		{"ext-mlth-thcl", "Extension: THCL under the multilevel scheme (Sec 6 future work)", ExtMultilevelTHCL},
		{"ext-mainmemory", "Extension: in-core search, trie vs B-tree (Sec 6)", ExtMainMemory},
		{"ext-dictionary", "Extension: trie size over a 20000-word dictionary (Sec 6)", ExtDictionary},
		{"obs-cache", "Observability: buffer pool hit rates versus frame count", ObsCache},
		{"contention", "Intra-op span profile of concurrent writers (latch vs structural lock)", Contention},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
