package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// tiny is a run small enough for a unit test: a fixed number of
// operations per client instead of a timed phase.
func tiny(t *testing.T, workload string, trace bool, clients int) config {
	return config{
		workload: workload, seed: 7, seconds: 1, trace: trace, dataDir: t.TempDir(),
		preload: 3000, ops: 1500, clients: clients, setups: 2,
	}
}

func TestInputsAreDeterministic(t *testing.T) {
	for _, sp := range specs {
		a, b := makeInputs(sp, 42, 2000, 500), makeInputs(sp, 42, 2000, 500)
		if !slices.Equal(a.keys, b.keys) || !slices.Equal(a.sorted, b.sorted) {
			t.Fatalf("%s: the same seed gave different inputs", sp.Name)
		}
		if c := makeInputs(sp, 43, 2000, 500); slices.Equal(a.keys, c.keys) {
			t.Fatalf("%s: different seeds gave the same keys", sp.Name)
		}
		ca := newClient(1, 2, sp, a, newModel(len(a.keys), a.preload), 42)
		cb := newClient(1, 2, sp, b, newModel(len(b.keys), b.preload), 42)
		for i := 0; i < 5000; i++ {
			if oa, ob := ca.pick(), cb.pick(); oa != ob {
				t.Fatalf("%s: op %d differs: %d vs %d", sp.Name, i, oa, ob)
			}
			if ia, ib := ca.readID(), cb.readID(); ia != ib {
				t.Fatalf("%s: key choice %d differs: %d vs %d", sp.Name, i, ia, ib)
			}
		}
	}
}

func TestValuesCheckThemselves(t *testing.T) {
	scratch := make([]byte, valueSize)
	v := newValue(5, 3)
	if !valueOK(v, scratch, 5, 3) || valueOK(v, scratch, 5, 4) || valueOK(v, scratch, 6, 3) {
		t.Fatal("valueOK does not identify (id, version)")
	}
	if !valueOfKey(v, scratch, 5) || valueOfKey(v, scratch, 6) {
		t.Fatal("valueOfKey does not identify the key")
	}
	v[50] ^= 1
	if valueOfKey(v, scratch, 5) {
		t.Fatal("a damaged value passed the check")
	}
}

// The blocks the benchmark allocates for latencies and values are all it
// allocates while recording, and it counts them, so subtracting them
// leaves the program's allocations. A GC cycle during the loop may add a
// few runtime allocations of its own; an uncounted allocation per sample
// or value would add thousands.
func TestOwnAllocationsAreCounted(t *testing.T) {
	sp, _ := specByName("resident-mixed")
	in := makeInputs(sp, 1, 100, 0)
	c := newClient(0, 1, sp, in, newModel(len(in.keys), in.preload), 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 3*sampleChunk; i++ {
		c.lat[i%numClasses].add(uint32(i), &c.own)
		if i%3 == 0 {
			c.value(int32(i%100), uint32(i))
		}
	}
	runtime.ReadMemStats(&after)
	if c.own.allocs == 0 {
		t.Fatal("no block was allocated")
	}
	const slackAllocs, slackBytes = 64, 16 << 10
	if n := int64(after.Mallocs - before.Mallocs); n < c.own.allocs || n > c.own.allocs+slackAllocs {
		t.Errorf("%d allocations, the benchmark counted %d", n, c.own.allocs)
	}
	if n := int64(after.TotalAlloc - before.TotalAlloc); n < c.own.bytes || n > c.own.bytes+slackBytes {
		t.Errorf("%d bytes allocated, the benchmark counted %d", n, c.own.bytes)
	}
}

// With one client and a fixed operation count nothing depends on timing,
// so the paper's cost counts repeat exactly.
func TestCountsRepeatWithOneClient(t *testing.T) {
	counts := []string{"store.reads_per_op", "core.splits_per_kop", "wal.fsyncs_per_op"}
	for _, sp := range specs {
		var first *report
		for run := 0; run < 2; run++ {
			r, err := runBench(tiny(t, sp.Name, false, 1))
			if err != nil {
				t.Fatalf("%s: %v", sp.Name, err)
			}
			if first == nil {
				first = r
				continue
			}
			for _, name := range counts {
				if a, b := first.Metrics[name].Value, r.Metrics[name].Value; a != b {
					t.Errorf("%s: %s was %v then %v", sp.Name, name, a, b)
				}
			}
		}
	}
}

type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func sameDefs(a, b []metricDef) bool {
	return slices.EqualFunc(a, b, func(x, y metricDef) bool {
		return x.Name == y.Name && x.Unit == y.Unit && x.Better == y.Better
	})
}

func TestBenchmarkFileMatchesTheMetricTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if !sameDefs(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the endToEnd table")
	}
	if !sameDefs(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the perLayer table")
	}
}

// A tiny run of every workload, untraced and traced, emits every metric
// BENCHMARK.json names, with its unit, as finite numbers, and fails no
// operation. End-to-end metrics are never zero.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			r, err := runBench(tiny(t, sp.Name, trace, 0))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.Name, trace, err)
			}
			var out bytes.Buffer
			if err := printResult(&out, r); err != nil {
				t.Fatalf("%s trace=%v: %v", sp.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int64             `json:"attempted"`
				Failed    int64             `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d (%s)",
					sp.Name, trace, res.Correct, res.Failed, res.Attempted, r.FirstError)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", sp.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", sp.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", sp.Name, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", sp.Name, trace, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", sp.Name, d.Name, m.Value)
				}
			}
		}
	}
}
