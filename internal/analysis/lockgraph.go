package analysis

import (
	_ "embed"
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// LockHierarchyTable is the checked-in machine-readable hierarchy
// (internal/analysis/lockhierarchy.txt, mirrored in DESIGN.md). The
// hierarchy the lockgraph analyzer infers from the acquisition graph must
// byte-match it; `thvet -graph hierarchy` emits the inferred text and CI
// diffs the two.
//
//go:embed lockhierarchy.txt
var LockHierarchyTable string

// LockGraph checks the engine's lock discipline as properties of the
// whole-program acquisition graph instead of per-site rules: every edge
// "B acquired while A held" must point strictly downward in the six-tier
// hierarchy (file > world > stripe > latch > flip > shard), the latch
// tier additionally keeps its one-at-a-time/ascending-order discipline
// (LockPair is the sole two-latch site; no latching inside map
// iteration), single-stripe locking stays confined to the ascending
// acquisition sites, store I/O never runs under a pool-shard latch, and
// the full graph — aux leaf locks included — must be acyclic.
var LockGraph = &Analyzer{
	Name:      "lockgraph",
	Doc:       "interprocedural lock-acquisition graph: hierarchy inversions, latch discipline, deadlock cycles",
	RunModule: runLockGraph,
}

// GraphEdge is one acquisition-order edge for the -graph renderings.
type GraphEdge struct {
	From, To string // graph node labels (tier names, or aux instance labels)
	At       string // first witness position, base-file:line
	In       string // function containing the first witness acquisition
	Count    int    // distinct acquisition events observed
}

// LockGraphResult is the assembled graph `thvet -graph` renders.
type LockGraphResult struct {
	Edges []GraphEdge
	// Order is the inferred hierarchy, outermost first: a topological
	// sort of the six tiers over the observed tier-to-tier edges, with
	// the canonical order as the deterministic tie-break for tiers the
	// program never orders against each other.
	Order []lockClass
}

// BuildLockGraph computes the acquisition graph of a load without
// reporting diagnostics (the `thvet -graph` entry point).
func BuildLockGraph(pkgs []*Package) *LockGraphResult {
	if len(pkgs) == 0 {
		return &LockGraphResult{Order: append([]lockClass(nil), hierarchyOrder...)}
	}
	return assembleGraph(engineFor(pkgs))
}

// edgeKey orders graph nodes: ranked tiers by rank, aux labels after,
// alphabetically.
func edgeNodeKey(label string) string {
	for _, c := range hierarchyOrder {
		if label == c.String() {
			return fmt.Sprintf("0%d", c.rank())
		}
	}
	return "1" + label
}

func assembleGraph(eng *lockEngine) *LockGraphResult {
	type ek struct{ from, to string }
	firsts := make(map[ek]GraphEdge)
	for _, n := range eng.graph.nodes {
		if n.sum == nil || isPrimitiveNode(n) {
			continue
		}
		for _, ev := range n.sum.acqs {
			for _, prior := range fullHeld(n, ev.held) {
				if prior.inst == ev.l.inst {
					continue
				}
				k := ek{prior.inst, ev.l.inst}
				e, seen := firsts[k]
				if !seen {
					e = GraphEdge{From: prior.inst, To: ev.l.inst, At: eng.shortPos(ev.l.pos), In: nodeLabel(n)}
				}
				e.Count++
				firsts[k] = e
			}
		}
	}
	res := &LockGraphResult{}
	for _, e := range firsts {
		res.Edges = append(res.Edges, e)
	}
	sort.Slice(res.Edges, func(i, j int) bool {
		a, b := res.Edges[i], res.Edges[j]
		ka, kb := edgeNodeKey(a.From), edgeNodeKey(b.From)
		if ka != kb {
			return ka < kb
		}
		return edgeNodeKey(a.To) < edgeNodeKey(b.To)
	})
	res.Order = inferOrder(res.Edges)
	return res
}

// inferOrder topologically sorts the six tiers over the observed
// tier-to-tier edges (edge A→B: A is outer). Tiers the program never
// orders fall back to canonical rank; if the observed edges are cyclic
// (an inversion, reported separately) the contested tier also falls back
// to canonical rank so the emitted table stays deterministic.
func inferOrder(edges []GraphEdge) []lockClass {
	tier := make(map[string]lockClass)
	for _, c := range hierarchyOrder {
		tier[c.String()] = c
	}
	incoming := make(map[lockClass]map[lockClass]bool)
	for _, e := range edges {
		from, okF := tier[e.From]
		to, okT := tier[e.To]
		if !okF || !okT || from == to {
			continue
		}
		if incoming[to] == nil {
			incoming[to] = make(map[lockClass]bool)
		}
		incoming[to][from] = true
	}
	remaining := append([]lockClass(nil), hierarchyOrder...)
	var order []lockClass
	for len(remaining) > 0 {
		pick := -1
		for i, c := range remaining {
			free := true
			for _, u := range remaining {
				if u != c && incoming[c][u] {
					free = false
					break
				}
			}
			if free {
				pick = i
				break
			}
		}
		if pick < 0 {
			pick = 0 // observed cycle: canonical fallback
		}
		order = append(order, remaining[pick])
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}
	return order
}

// tierDesc is the per-tier description line of lockhierarchy.txt; the
// emitted text is header + "name\tdesc" per tier in inferred order.
var tierDesc = map[lockClass]string{
	classFile:   "public File.mu — serializes the exported API surface per handle",
	classWorld:  "engine world lock (ConcurrentFile.world) — exclusive mode quiesces every writer for scrub, meta save, invariant checks",
	classStripe: "subtree stripes (concurrent.Stripes) — ascending, deduped subtree sets for structural changes",
	classLatch:  "per-bucket RW latches — at most one held per worker outside LockPair, visited in ascending address order",
	classFlip:   "trie flip lock (trieMu) — the engine's innermost lock: the publication window for split/merge trie flips and arena swaps",
	classShard:  "store-tier locks (cache shards, journal, MemStore map) — below the engine; pool-shard latches never cover store I/O",
}

const hierarchyHeader = `# Lock hierarchy of the concurrent engine, outermost first. Generated by
# ` + "`thvet -graph hierarchy`" + ` from the whole-program acquisition graph; an
# edge "B acquired while A held" must point strictly downward here.
`

// HierarchyText renders the inferred hierarchy in the lockhierarchy.txt
// format; when the program's acquisition edges agree with the checked-in
// table the two are byte-identical.
func (r *LockGraphResult) HierarchyText() string {
	var b strings.Builder
	b.WriteString(hierarchyHeader)
	for _, c := range r.Order {
		fmt.Fprintf(&b, "%s\t%s\n", c.String(), tierDesc[c])
	}
	return b.String()
}

// HierarchyMatches reports whether the inferred hierarchy byte-matches
// the checked-in lockhierarchy.txt.
func (r *LockGraphResult) HierarchyMatches() bool {
	return r.HierarchyText() == LockHierarchyTable
}

// DOT renders the acquisition graph for `thvet -graph dot`.
func (r *LockGraphResult) DOT() string {
	var b strings.Builder
	b.WriteString("digraph lockgraph {\n")
	b.WriteString("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n")
	nodes := map[string]bool{}
	for _, e := range r.Edges {
		nodes[e.From] = true
		nodes[e.To] = true
	}
	var labels []string
	for l := range nodes {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return edgeNodeKey(labels[i]) < edgeNodeKey(labels[j]) })
	for _, l := range labels {
		style := ""
		if strings.HasPrefix(l, "aux:") {
			style = ", style=dashed"
		}
		fmt.Fprintf(&b, "  %q [label=%q%s];\n", l, strings.TrimPrefix(l, "aux:"), style)
	}
	for _, e := range r.Edges {
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.From, e.To, fmt.Sprintf("%s (%d)", e.At, e.Count))
	}
	b.WriteString("}\n")
	return b.String()
}

// Markdown renders the hierarchy and edge table for `thvet -graph md`.
func (r *LockGraphResult) Markdown() string {
	var b strings.Builder
	b.WriteString("## Inferred lock hierarchy (outermost first)\n\n")
	for i, c := range r.Order {
		fmt.Fprintf(&b, "%d. **%s** — %s\n", i+1, c.String(), tierDesc[c])
	}
	b.WriteString("\n## Acquisition edges (B acquired while A held)\n\n")
	b.WriteString("| held (A) | acquired (B) | events | first witness |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, e := range r.Edges {
		fmt.Fprintf(&b, "| %s | %s | %d | `%s` in `%s` |\n",
			strings.TrimPrefix(e.From, "aux:"), strings.TrimPrefix(e.To, "aux:"), e.Count, e.At, e.In)
	}
	return b.String()
}

func runLockGraph(mp *ModulePass) {
	if len(mp.Pkgs) == 0 {
		return
	}
	eng := engineFor(mp.Pkgs)
	reported := make(map[string]bool)
	report := func(pos token.Pos, msg string) {
		key := fmt.Sprintf("%d|%s", pos, msg)
		if reported[key] {
			return
		}
		reported[key] = true
		mp.Reportf(pos, "%s", msg)
	}

	for _, n := range eng.graph.nodes {
		if n.sum == nil || isPrimitiveNode(n) {
			continue
		}
		for _, ev := range n.sum.acqs {
			l := ev.l

			// Stripe discipline: single-stripe Lock only inside the
			// ascending multi-acquisition sites; never inside map
			// iteration (map order is not ascending).
			if l.class == classStripe {
				if ev.via == "Lock" && !sanctionedStripeSite(ev.site) {
					report(l.pos, fmt.Sprintf("subtree stripe %s locked directly in %s: single-stripe locking is confined to the ascending acquisition sites (Acquire, lockSubtrees), which sort and dedup their key set", l.disp, ev.site))
				}
				if ev.mapDepth > 0 {
					report(l.pos, fmt.Sprintf("subtree stripe %s acquired inside iteration over a map: map order is not ascending; collect the stripe keys, sort them, then lock", l.disp))
				}
			}
			if l.class == classLatch && ev.mapDepth > 0 {
				report(l.pos, fmt.Sprintf("%s acquired inside iteration over a map: map order is not ascending; collect the addresses, sort them, then latch", l.disp))
			}

			for _, prior := range fullHeld(n, ev.held) {
				if prior.id == l.id || prior.inst == l.inst && prior.class != classLatch {
					continue
				}
				w := eng.witness(n, prior)
				switch {
				case prior.class == classFlip:
					// The flip lock is innermost within the engine: the
					// only sanctioned out-edges are into the store tier
					// (the publication write itself) and aux leaves.
					switch l.class {
					case classStripe:
						report(l.pos, fmt.Sprintf("subtree stripe %s acquired while flip lock %s is held: the flip lock is the innermost lock; nothing is acquired under it%s", l.disp, prior.disp, w))
					case classFile, classWorld, classLatch, classFlip:
						report(l.pos, fmt.Sprintf("lock %s acquired while flip lock %s is held: the flip lock is the innermost lock; nothing is acquired under it%s", l.disp, prior.disp, w))
					}
				case prior.class == classLatch:
					switch l.class {
					case classLatch:
						if ev.site != "LockPair" {
							report(l.pos, fmt.Sprintf("bucket latch %s acquired while %s is held: hold at most one latch at a time and visit buckets in ascending address order (LockPair is the sole two-latch site)%s", l.disp, prior.disp, w))
						}
					case classStripe:
						report(l.pos, fmt.Sprintf("subtree stripe %s acquired while bucket latch %s is held: the hierarchy is stripe > latch; derive and lock the stripe set before latching%s", l.disp, prior.disp, w))
					case classWorld, classFile:
						report(l.pos, fmt.Sprintf("structural lock %s acquired while bucket latch %s is held: the hierarchy is structural > latch; release the latch and retry under the structural lock%s", l.disp, prior.disp, w))
					}
				case !prior.class.ranked() || !l.class.ranked():
					// aux leaves are unranked: cycle detection below is
					// their only ordering check.
				case l.class.rank() <= prior.class.rank() && l.class != prior.class:
					report(l.pos, fmt.Sprintf("%s (%s tier) acquired while %s (%s tier) is held: the engine's lock hierarchy is file > world > stripe > latch > flip > shard%s", l.disp, l.class, prior.disp, prior.class, w))
				}
			}
		}

		// Pool-shard latches never cover store I/O: the fill path reads
		// the store outside the shard's critical section.
		for _, io := range n.sum.ios {
			for _, prior := range fullHeld(n, io.held) {
				if prior.class == classShard && prior.localShape {
					report(io.pos, fmt.Sprintf("store I/O %s.%s while shard latch %s is held: fill misses outside the latch%s", io.recv, io.method, prior.disp, eng.witness(n, prior)))
				}
			}
		}
	}

	reportCycles(mp, eng, report)
}

// reportCycles finds strongly connected components of the acquisition
// graph. Edges already reported as hierarchy inversions (upward
// ranked-to-ranked) are excluded — the remaining graph can only cycle
// through aux locks, which have no rank and whose ordering bugs would
// otherwise go unseen.
func reportCycles(mp *ModulePass, eng *lockEngine, report func(token.Pos, string)) {
	type witness struct {
		pos  token.Pos
		disp string
	}
	adj := make(map[string]map[string]witness)
	for _, n := range eng.graph.nodes {
		if n.sum == nil || isPrimitiveNode(n) {
			continue
		}
		for _, ev := range n.sum.acqs {
			l := ev.l
			for _, prior := range fullHeld(n, ev.held) {
				if prior.inst == l.inst {
					continue
				}
				if prior.class.ranked() && l.class.ranked() && l.class.rank() <= prior.class.rank() {
					continue // inversion, reported above
				}
				if adj[prior.inst] == nil {
					adj[prior.inst] = make(map[string]witness)
				}
				if _, ok := adj[prior.inst][l.inst]; !ok {
					adj[prior.inst][l.inst] = witness{pos: l.pos, disp: l.disp}
				}
			}
		}
	}
	var labels []string
	seenL := map[string]bool{}
	addL := func(l string) {
		if !seenL[l] {
			seenL[l] = true
			labels = append(labels, l)
		}
	}
	for from, tos := range adj {
		addL(from)
		for to := range tos {
			addL(to)
		}
	}
	sort.Strings(labels)

	// Iterative Tarjan over the label graph.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	var sccs [][]string
	sortedTos := func(from string) []string {
		var out []string
		for to := range adj[from] {
			out = append(out, to)
		}
		sort.Strings(out)
		return out
	}
	type frame struct {
		n   string
		tos []string
		ei  int
	}
	for _, root := range labels {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{n: root, tos: sortedTos(root)}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.ei == 0 {
				index[f.n] = next
				low[f.n] = next
				next++
				stack = append(stack, f.n)
				onStack[f.n] = true
			}
			advanced := false
			for f.ei < len(f.tos) {
				m := f.tos[f.ei]
				f.ei++
				if _, seen := index[m]; !seen {
					work = append(work, frame{n: m, tos: sortedTos(m)})
					advanced = true
					break
				}
				if onStack[m] && low[m] < low[f.n] {
					low[f.n] = low[m]
				}
			}
			if advanced {
				continue
			}
			if low[f.n] == index[f.n] {
				var scc []string
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					scc = append(scc, m)
					if m == f.n {
						break
					}
				}
				if len(scc) > 1 {
					sccs = append(sccs, scc)
				}
			}
			n := f.n
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].n
				if low[n] < low[p] {
					low[p] = low[n]
				}
			}
		}
	}

	for _, scc := range sccs {
		sort.Strings(scc)
		inSCC := make(map[string]bool, len(scc))
		for _, l := range scc {
			inSCC[l] = true
		}
		var parts []string
		var at token.Pos
		for _, from := range scc {
			for _, to := range sortedTos(from) {
				if !inSCC[to] {
					continue
				}
				w := adj[from][to]
				if at == token.NoPos {
					at = w.pos
				}
				parts = append(parts, fmt.Sprintf("%s -> %s (%s)",
					strings.TrimPrefix(from, "aux:"), strings.TrimPrefix(to, "aux:"), eng.shortPos(w.pos)))
			}
		}
		report(at, fmt.Sprintf("potential deadlock: lock-order cycle %s", strings.Join(parts, ", ")))
	}
}
