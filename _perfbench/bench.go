package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"triehash"
	"triehash/internal/obs"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dataDir  string // parent of the run's data directory
	outDir   string // where the result and span files go; "" writes none
	preload  int    // 0 = the workload's size
	ops      int64  // operations per client per phase; 0 = run for seconds
	clients  int    // 0 = the workload's client count
	setups   int    // set-ups timed in an untraced run; 0 = defaultSetups
}

// insertRate bounds the inserts per second a run can consume: the insert
// pool is sized from it so it cannot run dry on a plausible host. A dry
// pool turns further inserts into overwrites and is noted in the report.
const insertRate = 25_000

// untracedLimit is the untraced share above which the reconciliation is
// flagged.
const untracedLimit = 0.15

// report is everything one run measured. The last line of standard output
// carries a subset of Metrics; the result file carries all of it.
type report struct {
	Workload   spec                 `json:"workload"`
	Host       host                 `json:"host"`
	Seed       int64                `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Trace      bool                 `json:"trace"`
	OpsLimit   int64                `json:"ops_per_client,omitempty"`
	Correct    bool                 `json:"correct"`
	Attempted  int64                `json:"attempted"`
	Failed     int64                `json:"failed"`
	FirstError string               `json:"first_error,omitempty"`
	Metrics    map[string]metric    `json:"metrics"`
	Samples    map[string]int       `json:"samples"`
	Windows    map[string][]float64 `json:"windows"` // per-window values of ops_per_s
	Stages     map[string]float64   `json:"stage_us_per_op,omitempty"`
	Notes      []string             `json:"notes,omitempty"`
	spans      [][]span
	slowOps    []triehash.SpanRecord
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) failure(err error) {
	r.Failed++
	if r.FirstError == "" {
		r.FirstError = err.Error()
	}
}

// setup creates the workload's file and preloads it with PutBatch.
func setup(sp spec, dir string, in *inputs) (*triehash.File, error) {
	var f *triehash.File
	var err error
	if sp.OnDisk {
		f, err = triehash.CreateAt(dir, sp.Options)
	} else {
		f, err = triehash.Create(sp.Options)
	}
	if err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	vals := make([][]byte, preloadBat)
	for lo := 0; lo < in.preload; lo += preloadBat {
		hi := min(lo+preloadBat, in.preload)
		for i := lo; i < hi; i++ {
			vals[i-lo] = newValue(int32(i), 0)
		}
		for _, err := range f.PutBatch(in.keys[lo:hi], vals[:hi-lo]) {
			if err != nil {
				_ = f.Close() // the preload error is the one to report
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
	}
	return f, nil
}

// liveHeap returns the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// defaultSetups is how many set-ups an untraced run times; setup_s is
// their median.
const defaultSetups = 3

// runBench runs one workload: set-up, an untraced timed phase, with trace
// a traced phase on a fresh set-up, then (for the WAL workload) the
// crash-copy reopen of the last phase's file, and after Close the
// store/codec replay.
func runBench(cfg config) (*report, error) {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.preload > 0 {
		sp.Preload = cfg.preload
	}
	if cfg.clients > 0 {
		sp.Clients = cfg.clients
	}
	pool := 0
	if sp.Mix.Insert > 0 {
		if cfg.ops > 0 {
			pool = int(cfg.ops) * sp.Clients
		} else {
			pool = int(insertRate * cfg.seconds)
		}
	}
	in := makeInputs(sp, cfg.seed, sp.Preload, pool)

	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(cfg.dataDir, sp.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	r := &report{
		Workload: sp, Host: fingerprint(base), Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, OpsLimit: cfg.ops,
		Metrics: map[string]metric{}, Samples: map[string]int{}, Windows: map[string][]float64{},
	}

	// Set-up, timed several times in an untraced run; the last file is
	// the one measured. The live heap is the growth across that last one.
	setups := cfg.setups
	if setups < 1 {
		setups = defaultSetups
	}
	if cfg.trace {
		setups = 1
	}
	var f *triehash.File
	var dir string
	var setupS []float64
	var heap0 int64
	for i := 0; i < setups; i++ {
		if f != nil {
			if err := discard(f, dir); err != nil {
				return nil, err
			}
		}
		heap0 = liveHeap()
		dir = filepath.Join(base, fmt.Sprintf("file%d", i))
		t := time.Now()
		if f, err = setup(sp, dir, in); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	heap := liveHeap() - heap0
	defer func() {
		if f != nil {
			_ = f.Close() // a no-op once the explicit Close below has run
		}
	}()

	m, clients := newClients(sp, in, cfg.seed)
	d := time.Duration(cfg.seconds * float64(time.Second))

	st0, w0 := f.Stats(), walStats(f)
	ms0, io0, hi0 := memStats(), readProcIO(), readInterference()
	a := runPhase(f, clients, d, cfg.ops, false)
	ms1, io1 := memStats(), readProcIO()
	r.Host.IOStallShare, r.Host.StealShare = readInterference().shares(hi0, a.wall.Seconds())
	st1, w1 := f.Stats(), walStats(f)

	var b phase
	var o *triehash.Observer
	if cfg.trace {
		// The traced phase starts from a fresh set-up with the same seed,
		// so it runs the untraced phase's operations on the same file
		// state and its stage times sit beside counters of the same work.
		if err := discard(f, dir); err != nil {
			return nil, err
		}
		dir = filepath.Join(base, "traced")
		if f, err = setup(sp, dir, in); err != nil {
			return nil, err
		}
		m, clients = newClients(sp, in, cfg.seed)
		o = triehash.NewObserver(triehash.ObserverConfig{Spans: true})
		f.Observe(o)
		b = runPhase(f, clients, d, cfg.ops, true)
		f.Observe(nil)
		r.spans = b.spans
		r.slowOps, _ = o.SlowOps()
	}
	r.Attempted = a.ops + b.ops
	r.Failed = a.failed + b.failed
	for _, err := range []error{a.firstErr, b.firstErr} {
		if err != nil && r.FirstError == "" {
			r.FirstError = err.Error()
		}
	}
	if dry := a.poolDry + b.poolDry; dry > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("insert pool ran dry: %d inserts became overwrites", dry))
	}

	// The crash copy: the directory as a process crash leaves it, before
	// Close, reopened and checked against every acknowledged write.
	if sp.OnDisk && sp.Options.WAL {
		crash := filepath.Join(base, "crash")
		if err := copyDir(dir, crash); err != nil {
			return nil, fmt.Errorf("crash copy: %w", err)
		}
		t := time.Now()
		g, err := triehash.OpenAt(crash)
		r.set("recover_s", time.Since(t).Seconds(), "s")
		r.Attempted++
		if err != nil {
			r.failure(fmt.Errorf("reopen crash copy: %w", err))
		} else {
			verifyAll(r, g, in, m, clients)
			if err := g.Close(); err != nil {
				r.failure(fmt.Errorf("close crash copy: %w", err))
			}
		}
	}

	r.Attempted++
	if err := f.Close(); err != nil {
		r.failure(fmt.Errorf("close: %w", err))
	}
	var rs replayStats
	if sp.OnDisk {
		n, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		r.set("disk_bytes_per_user_byte", ratio(float64(n), float64(liveUserBytes(in, m))), "B/B")
		if cfg.trace {
			if rs, err = replay(filepath.Join(dir, "buckets.th")); err != nil {
				return nil, err
			}
			r.Attempted += int64(rs.pages)
			for i := 0; i < rs.mismatches; i++ {
				r.failure(errors.New("codec replay: decoded page differs from the page read"))
			}
		}
	}

	// End-to-end metrics, from the untraced phase.
	r.set("setup_s", median(setupS), "s")
	r.Samples["setup_s"] = len(setupS)
	r.Windows["ops_per_s"] = a.rates
	r.set("ops_per_s", median(a.rates), "1/s")
	r.Samples["ops_per_s"] = int(a.ops)
	for _, t := range []struct {
		class int
		name  string
	}{{classGet, "get"}, {classWrite, "write"}, {classRange, "range"}} {
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50_us", 0.50}, {"_p99_us", 0.99}} {
			if us, n := a.latency(t.class, q.q); n > 0 {
				r.set(t.name+q.suffix, us, "us")
				r.Samples[t.name+q.suffix] = n
			}
		}
	}
	r.set("heap_mib", float64(heap)/(1<<20), "MiB")
	r.set("failed_op_share", ratio(float64(r.Failed), float64(r.Attempted)), "ratio")
	r.Correct = r.Failed == 0

	// Per-layer metrics: counters over the untraced phase, stage self time
	// over the traced one, and the replay. The allocation counts leave out
	// the blocks the benchmark allocated for values and latencies.
	opsA := float64(a.ops)
	r.set("triehash.allocs_per_op", ratio(float64(int64(ms1.Mallocs-ms0.Mallocs)-a.own.allocs), opsA), "count/op")
	r.set("triehash.alloc_bytes_per_op", ratio(float64(int64(ms1.TotalAlloc-ms0.TotalAlloc)-a.own.bytes), opsA), "B/op")
	r.set("triehash.gc_per_kop", ratio(1000*float64(ms1.NumGC-ms0.NumGC), opsA), "1/kop")
	r.set("trie.depth", float64(st1.Depth), "count")
	r.set("trie.cells", float64(st1.TrieCells), "count")
	r.set("core.splits_per_kop", ratio(1000*float64(st1.Splits-st0.Splits), opsA), "1/kop")
	r.set("core.load_factor", st1.Load, "ratio")
	r.set("store.reads_per_op", ratio(float64(st1.IO.Reads-st0.IO.Reads), opsA), "count/op")
	r.set("store.writes_per_op", ratio(float64(st1.IO.Writes-st0.IO.Writes), opsA), "count/op")
	hits, misses := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses
	r.set("store.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	r.set("store.os_read_bytes_per_op", ratio(float64(io1.rchar-io0.rchar), opsA), "B/op")
	r.set("store.os_write_bytes_per_user_byte", ratio(float64(io1.wchar-io0.wchar), float64(a.userBytes)), "B/B")
	r.set("mlth.page_reads_per_op", ratio(float64(st1.PageReads-st0.PageReads), opsA), "count/op")
	r.set("mlth.levels", float64(st1.Levels), "count")
	r.set("mlth.pages", float64(st1.Pages), "count")
	r.set("wal.commits_per_fsync", ratio(float64(w1.Committed-w0.Committed), float64(w1.Fsyncs-w0.Fsyncs)), "ratio")
	r.set("wal.fsyncs_per_op", ratio(float64(w1.Fsyncs-w0.Fsyncs), opsA), "count/op")
	r.set("wal.checkpoints_per_kop", ratio(1000*float64(w1.Checkpoints-w0.Checkpoints), opsA), "1/kop")
	r.set("store.file_read_us_per_page", ratio(float64(rs.readNs)/1e3, float64(rs.pages)), "us/page")
	r.set("bucket.decode_ns_per_page", ratio(float64(rs.decNs), float64(rs.pages*replayPasses)), "ns/page")
	r.set("bucket.encode_ns_per_page", ratio(float64(rs.encNs), float64(rs.pages*replayPasses)), "ns/page")
	r.set("bucket.encoded_bytes_per_record", ratio(float64(rs.encBytes), float64(rs.records)), "B/record")
	if cfg.trace {
		traced(r, a, b, o)
	}
	return r, nil
}

// traced derives the span metrics: per-stage self time per operation, the
// share of call time the observer's spans do not cover, and the cost of
// tracing itself.
func traced(r *report, a, b phase, o *triehash.Observer) {
	opsB := float64(b.ops)
	r.Stages = map[string]float64{}
	for _, sm := range stageMetrics {
		us := ratio(float64(o.Stage(sm.stage).Sum())/1e3, opsB)
		r.set(sm.name, us, usPerOp)
	}
	for _, st := range obs.Stages() {
		r.Stages[st.String()] = ratio(float64(o.Stage(st).Sum())/1e3, opsB)
	}
	r.set("wal.fsync_us", float64(o.Stage(triehash.StageWALFsync).Mean())/1e3, "us")
	var tracedNs float64
	for _, op := range []triehash.Op{triehash.OpGet, triehash.OpPut, triehash.OpDelete, triehash.OpRange} {
		tracedNs += float64(o.Op(op).Sum())
	}
	share := ratio(float64(b.callNs)-tracedNs, float64(b.callNs))
	r.set("triehash.untraced_share", share, "ratio")
	r.set("triehash.trace_overhead", ratio(float64(a.ops)/a.wall.Seconds(), opsB/b.wall.Seconds()), "ratio")
	if share > untracedLimit {
		r.Notes = append(r.Notes, fmt.Sprintf("untraced share %.1f%% is over the %.0f%% reconciliation limit", 100*share, 100*untracedLimit))
	}
}

// newClients builds the model of the preloaded file and its clients.
func newClients(sp spec, in *inputs, seed int64) (*model, []*client) {
	m := newModel(len(in.keys), sp.Preload)
	clients := make([]*client, sp.Clients)
	for i := range clients {
		clients[i] = newClient(i, sp.Clients, sp, in, m, seed)
	}
	return m, clients
}

// discard closes a file that is no longer measured and removes its files.
func discard(f *triehash.File, dir string) error {
	if err := f.Close(); err != nil {
		return fmt.Errorf("close after set-up: %w", err)
	}
	return os.RemoveAll(dir)
}

func walStats(f *triehash.File) triehash.WALStats {
	w, _ := f.WALStats() // zero without a WAL, which reads as no activity
	return w
}

// verifyAll checks the reopened crash copy against the model: every
// acknowledged write is served with its value and no deleted key is.
func verifyAll(r *report, g *triehash.File, in *inputs, m *model, clients []*client) {
	scratch := make([]byte, valueSize)
	for _, c := range clients {
		for _, id := range c.owned {
			r.Attempted++
			v, err := g.Get(in.keys[id])
			if err := readMismatch(v, err, id, m.ver[id], scratch); err != nil {
				r.failure(fmt.Errorf("crash copy: get %q: %w", in.keys[id], err))
			}
		}
	}
}

// liveUserBytes is the key and value bytes of every live record.
func liveUserBytes(in *inputs, m *model) int64 {
	var n int64
	for id, v := range m.ver {
		if v >= 0 {
			n += int64(len(in.keys[id]) + valueSize)
		}
	}
	return n
}
