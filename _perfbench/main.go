// Command perfbench is the repository's benchmark: closed-loop clients
// drive a triehash.File through its exported API on three workloads and
// report end-to-end metrics (untraced) or per-layer metrics (traced).
//
//	perfbench --workload resident-mixed --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// readable report. run.sh builds and runs it; README.md describes the
// workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command line and returns the exit code: 0 when every
// result checked out, 1 when some operation failed or returned a wrong
// result, 2 when the benchmark itself could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg config
	var trace int
	fl.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	fl.Int64Var(&cfg.seed, "seed", 1, "seed all inputs derive from")
	fl.Float64Var(&cfg.seconds, "seconds", 10, "length of each timed phase")
	fl.IntVar(&trace, "trace", 0, "1 adds a traced phase and reports per-layer metrics")
	fl.StringVar(&cfg.dataDir, "data", ".bench_build/data", "directory for the run's files (removed afterwards)")
	fl.StringVar(&cfg.outDir, "out", ".bench_build/results", "directory for result and span files; empty writes none")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = nil
		for _, s := range specs {
			names = append(names, s.Name)
		}
	}
	code := 0
	for _, name := range names {
		cfg.workload = name
		r, err := runBench(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 2
		}
		if err := writeFiles(cfg, r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 2
		}
		printReport(stdout, r)
		for _, n := range r.Notes {
			fmt.Fprintf(stderr, "perfbench: %s: note: %s\n", name, n)
		}
		if err := printResult(stdout, r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 2
		}
		if !r.Correct {
			fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed; first: %s\n", name, r.Failed, r.Attempted, r.FirstError)
			code = 1
		}
	}
	return code
}

// printReport writes the readable report: provenance, then every metric
// the run measured with its unit and sample count.
func printReport(w io.Writer, r *report) {
	h := r.Host
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v clients=%d preload=%d\n",
		r.Workload.Name, r.Seed, r.Seconds, r.Trace, r.Workload.Clients, r.Workload.Preload)
	fmt.Fprintf(w, "host: num_cpu=%d GOMAXPROCS=%d %s %s kernel=%s data=%s (%s)\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.Kernel, h.DataDir, h.DataFS)
	fmt.Fprintf(w, "interference during the timed phase: io stall %.1f%%, cpu steal %.1f%%\n",
		100*h.IOStallShare, 100*h.StealShare)
	fmt.Fprintf(w, "flush policy: %s\n", r.Workload.Flush)
	printDefs(w, "end to end", append(slices.Clone(endToEnd), reportOnly...), r)
	if r.Trace {
		printDefs(w, "per layer", perLayer, r)
	}
	if len(r.Stages) > 0 {
		names := make([]string, 0, len(r.Stages))
		for k := range r.Stages {
			names = append(names, k)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, k := range names {
			fmt.Fprintf(&b, " %s=%.4g", k, r.Stages[k])
		}
		fmt.Fprintf(w, "stage self time, us/op:%s\n", b.String())
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

// printDefs prints the measured metrics among defs under a title.
func printDefs(w io.Writer, title string, defs []metricDef, r *report) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-9s", d.Name, m.Value, m.Unit)
		if n, ok := r.Samples[d.Name]; ok {
			fmt.Fprintf(w, " n=%d", n)
		}
		fmt.Fprintln(w)
	}
}

// printResult writes the final JSON line: end-to-end metrics untraced,
// per-layer metrics traced.
func printResult(w io.Writer, r *report) error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		ms[d.Name] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// spanSampleEvery keeps every n-th span in the span file besides the tail.
const spanSampleEvery = 100

// writeFiles writes the full report and, for a traced run, the
// benchmark's spans: every span at or above its operation's p99 plus a
// systematic sample of the rest, then the observer's slow-op breakdowns.
func writeFiles(cfg config, r *report) error {
	if cfg.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload.Name, r.Seed, btoi(r.Trace)))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}
	var p99 [numOps]uint32
	for op := range p99 {
		var ds []uint32
		for _, cs := range r.spans {
			for _, s := range cs {
				if int(s.op) == op {
					ds = append(ds, s.dur)
				}
			}
		}
		slices.Sort(ds)
		if len(ds) > 0 {
			p99[op] = ds[min(len(ds)-1, len(ds)*99/100)]
		}
	}
	f, err := os.Create(stem + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for c, cs := range r.spans {
		for i, s := range cs {
			if s.dur < p99[s.op] && i%spanSampleEvery != 0 {
				continue
			}
			fmt.Fprintf(bw, `{"id":%d,"client":%d,"op":%q,"start_ns":%d,"dur_ns":%d}`+"\n",
				c<<32|i, c, opNames[s.op], s.start, s.dur)
		}
	}
	for _, rec := range r.slowOps {
		line, err := json.Marshal(map[string]any{"observer_slow_op": rec})
		if err != nil {
			f.Close()
			return err
		}
		bw.Write(append(line, '\n'))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
