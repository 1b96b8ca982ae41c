// Command thbench regenerates the tables and figures of the paper's
// evaluation. Every experiment rebuilds its workload and parameter sweep
// from scratch with fixed seeds, so the output is deterministic.
//
// Usage:
//
//	thbench -list             # enumerate experiments
//	thbench -experiment fig10 # run one experiment
//	thbench                   # run all of them
package main

import (
	"flag"
	"fmt"
	"os"

	"triehash/internal/bench"
	"triehash/internal/obs"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	experiment := flag.String("experiment", "", "run a single experiment by id (default: all)")
	csv := flag.Bool("csv", false, "emit comma-separated rows (for plotting) instead of aligned tables")
	procs := flag.Int("procs", 8, "worker goroutines for the contention experiment")
	traceThreshold := flag.Duration("trace-threshold", -1,
		"enable span tracing on every experiment and print an end-of-run span/contention summary; the value is the slow-op flight-recorder threshold (0 = adaptive rolling p99, <0 = tracing off)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /obs.json, /debug/vars and /debug/pprof on this address while experiments run")
	flag.Parse()

	bench.SetContentionProcs(*procs)
	if *traceThreshold >= 0 {
		bench.SetTraceThreshold(*traceThreshold)
	}

	var spanObs *obs.Observer
	if *metricsAddr != "" || *traceThreshold >= 0 {
		cfg := obs.Config{TraceDepth: 8192}
		if *traceThreshold >= 0 {
			cfg.Spans = true
			cfg.SlowOp = *traceThreshold
		}
		o := obs.New(cfg)
		bench.Observe(o)
		if cfg.Spans {
			spanObs = o
		}
		if *metricsAddr != "" {
			bound, err := obs.Serve(*metricsAddr, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "thbench:", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "thbench: metrics on http://%s\n", bound)
		}
	}
	defer func() {
		if spanObs != nil {
			obs.WriteSpanPanel(os.Stderr, spanObs.SnapshotSince(0))
		}
	}()
	render := func(t *bench.Table) {
		if *csv {
			fmt.Print(t.CSV())
			return
		}
		fmt.Println(t)
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}
	if *experiment != "" {
		e, ok := bench.ByID(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "thbench: unknown experiment %q; use -list\n", *experiment)
			os.Exit(2)
		}
		render(e.Run())
		return
	}
	for _, e := range bench.Registry() {
		render(e.Run())
	}
}
