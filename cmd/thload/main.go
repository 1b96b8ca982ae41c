// Command thload sweeps the load factor of trie-hashed files over the
// split parameters, the way the paper's Figs 10-11 were produced. It
// prints one row per configuration: load factor a%, trie size M, file
// size N and growth rate s.
//
// Usage:
//
//	thload -n 5000 -b 10,20,50 -order asc -variant thcl -sweep d
//	thload -n 5000 -b 20 -order random -variant th
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"triehash/internal/core"
	"triehash/internal/obs"
	"triehash/internal/store"
	"triehash/internal/trie"
	"triehash/internal/workload"
)

func main() {
	n := flag.Int("n", 5000, "number of keys")
	seed := flag.Int64("seed", 10, "workload seed")
	bs := flag.String("b", "10,20,50", "comma-separated bucket capacities")
	order := flag.String("order", "asc", "insertion order: asc, desc or random")
	variant := flag.String("variant", "thcl", "method variant: th or thcl")
	sweep := flag.String("sweep", "", "sweep parameter: 'd' (Fig 10/11 style) or empty for the default middle split")
	redist := flag.String("redist", "none", "redistribution: none, succ, pred or both")
	frames := flag.Int("frames", 0, "buffer pool frames in front of the simulated disk (0 = no pool, the paper's model)")
	bulk := flag.Float64("bulkload", 0, "bulk-load the file at this fill in (0,1] instead of inserting incrementally (requires -order asc)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /obs.json, /debug/vars and /debug/pprof on this address during the sweep")
	hold := flag.Duration("hold", 0, "keep serving metrics this long after the sweep (so thstat can attach)")
	traceThreshold := flag.Duration("trace-threshold", -1,
		"trace every Put as a staged span and print an end-of-run span/contention summary; the value is the slow-op flight-recorder threshold (0 = adaptive rolling p99, <0 = tracing off)")
	flag.Parse()

	hook := &obs.Hook{}
	var observer *obs.Observer
	if *metricsAddr != "" || *traceThreshold >= 0 {
		cfg := obs.Config{TraceDepth: 8192}
		if *traceThreshold >= 0 {
			cfg.Spans = true
			cfg.SlowOp = *traceThreshold
		}
		observer = obs.New(cfg)
		hook.Set(observer)
		if *metricsAddr != "" {
			bound, err := obs.Serve(*metricsAddr, observer)
			if err != nil {
				fail(err.Error())
			}
			fmt.Fprintf(os.Stderr, "thload: metrics on http://%s\n", bound)
		}
	}

	mode := trie.ModeTHCL
	if *variant == "th" {
		mode = trie.ModeBasic
	} else if *variant != "thcl" {
		fail("-variant must be th or thcl")
	}
	var rd core.Redistribution
	switch *redist {
	case "none":
		rd = core.RedistNone
	case "succ":
		rd = core.RedistSuccessor
	case "pred":
		rd = core.RedistPredecessor
	case "both":
		rd = core.RedistBoth
	default:
		fail("-redist must be none, succ, pred or both")
	}

	base := workload.Uniform(*seed, *n, 3, 10)
	var ks []string
	switch *order {
	case "asc":
		ks = workload.Ascending(base)
	case "desc":
		ks = workload.Descending(base)
	case "random":
		ks = base
	default:
		fail("-order must be asc, desc or random")
	}

	fmt.Printf("%-4s %-4s %-4s %-6s %-8s %-7s %-7s %-6s\n", "b", "m", "m''", "d", "a%", "M", "N", "s")
	for _, bstr := range strings.Split(*bs, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(bstr))
		if err != nil || b < 2 {
			fail("bad bucket capacity " + bstr)
		}
		for _, cfg := range configs(b, mode, rd, *order, *sweep) {
			var pool store.Store = store.NewMem()
			if *frames > 0 {
				pool = store.NewSharded(pool, *frames, 0)
			}
			var f *core.File
			var mu sync.Mutex
			if *bulk > 0 {
				if *order != "asc" {
					fail("-bulkload needs keys in ascending order; use -order asc")
				}
				i := 0
				next := func() (string, []byte, bool) {
					if i >= len(ks) {
						return "", nil, false
					}
					k := ks[i]
					i++
					return k, nil, true
				}
				var err error
				f, err = core.BulkLoad(cfg, store.NewInstrumented(pool, hook), *bulk, next)
				if err != nil {
					fail(err.Error())
				}
				f.SetObsHook(hook)
			} else {
				var err error
				f, err = core.New(cfg, store.NewInstrumented(pool, hook))
				if err != nil {
					fail(err.Error())
				}
				f.SetObsHook(hook)
				// core.File is not concurrency-safe, so the metrics server's
				// state snapshots serialize with the load loop.
				if observer != nil {
					observer.SetStateFunc(func() obs.State {
						mu.Lock()
						s := f.Stats()
						mu.Unlock()
						return obs.State{
							Keys: s.Keys, Buckets: s.Buckets, Load: s.Load,
							TrieCells: s.TrieCells, Depth: s.Depth, Levels: 1, Pages: 1,
						}
					})
				}
				for _, k := range ks {
					mu.Lock()
					perr := put(observer, f, k)
					mu.Unlock()
					if perr != nil {
						fail(perr.Error())
					}
				}
			}
			mu.Lock()
			st := f.Stats()
			mu.Unlock()
			d := 0
			if *order == "desc" && cfg.SplitPos == 1 {
				d = cfg.BoundPos - 2
			} else {
				d = b - cfg.SplitPos
			}
			fmt.Printf("%-4d %-4d %-4d %-6d %-8.3f %-7d %-7d %-6.2f\n",
				b, cfg.SplitPos, cfg.BoundPos, d, st.Load*100, st.TrieCells, st.Buckets, st.GrowthRate)
		}
	}
	if *traceThreshold >= 0 {
		obs.WriteSpanPanel(os.Stderr, observer.SnapshotSince(0))
	}
	if *metricsAddr != "" && *hold > 0 {
		fmt.Fprintf(os.Stderr, "thload: holding metrics server for %v\n", *hold)
		time.Sleep(*hold)
	}
}

// put inserts one key, as a staged span when the observer traces spans
// (-trace-threshold; StartSpan returns nil otherwise). The span is
// finished on every return path (deferred; the obsop analyzer enforces
// it).
func put(o *obs.Observer, f *core.File, k string) error {
	sp := o.StartSpan(obs.OpPut)
	defer o.FinishSpan(sp)
	_, err := f.PutOp(k, nil, sp)
	return err
}

// configs enumerates the configurations of a sweep.
func configs(b int, mode trie.Mode, rd core.Redistribution, order, sweep string) []core.Config {
	if sweep != "d" {
		return []core.Config{{Capacity: b, Mode: mode, Redistribution: rd}}
	}
	var out []core.Config
	if order == "desc" && mode == trie.ModeTHCL {
		// Fig 11: m = 1, sweep the bounding key position.
		for d := 0; d <= (3*b)/4 && 2+d <= b+1; d++ {
			out = append(out, core.Config{
				Capacity: b, Mode: mode, Redistribution: rd,
				SplitPos: 1, BoundPos: 2 + d,
			})
		}
		return out
	}
	// Fig 10: sweep the split key position downward from b.
	for d := 0; d <= (3*b)/4 && d < b; d++ {
		out = append(out, core.Config{
			Capacity: b, Mode: mode, Redistribution: rd,
			SplitPos: b - d,
		})
	}
	return out
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "thload:", msg)
	os.Exit(2)
}
