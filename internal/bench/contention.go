package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"triehash/internal/core"
	"triehash/internal/obs"
	"triehash/internal/store"
	"triehash/internal/trie"
	"triehash/internal/workload"
)

// Knobs cmd/thbench exposes for the contention experiment (-procs,
// -trace-threshold).
var (
	contentionProcs = 8
	traceThreshold  time.Duration // 0 = adaptive rolling p99
)

// SetContentionProcs sets the worker count of the contention experiment.
func SetContentionProcs(n int) {
	if n > 0 {
		contentionProcs = n
	}
}

// SetTraceThreshold fixes the slow-op flight-recorder admission threshold
// for the experiments that trace spans (0 keeps the adaptive rolling p99).
func SetTraceThreshold(d time.Duration) {
	if d >= 0 {
		traceThreshold = d
	}
}

// putSpanned performs one traced Put: a span opens, travels through the
// engine collecting stage marks and latch holds, and closes on every
// return path (the obsop analyzer enforces the deferred finish).
func putSpanned(o *obs.Observer, e *core.ConcurrentFile, k string, v []byte) error {
	sp := o.StartSpan(obs.OpPut)
	defer o.FinishSpan(sp)
	_, err := e.PutOp(k, v, sp)
	return err
}

// Contention profiles the concurrent write engine with span tracing on:
// where does a Put spend its time when many writers share a fully cached
// (mem-regime) file, and which locks make them wait? Two phases run over
// a file preloaded with 2^15 keys:
//
//   - overwrite: steady state, no structure changes. Workers walk the
//     whole key space from different offsets, so their buckets collide.
//   - growth: every worker inserts fresh keys from its own shard, so the
//     file splits continuously and the subtree stripes plus the trie flip
//     lock join the picture.
//
// The table reports the per-stage span breakdown of each phase; the notes
// name the dominant wait source, the flip-lock share, the hottest subtree
// stripes and the most latch-contended buckets. This is the profile that
// attributes the E30 mem-regime scaling wall (EXPERIMENTS.md E31) and
// verifies the subtree-striping rework against it (E32).
//
// Unlike the paper-figure experiments this one reports wall-clock times,
// so the exact numbers vary run to run; the shape — which stage dominates,
// which lock writers wait on — is stable.
func Contention() *Table {
	const (
		nkeys  = 1 << 15
		opsPer = 1 << 14 // puts per worker per phase
	)
	procs := contentionProcs
	ks := workload.Uniform(31, nkeys, 3, 12)
	fresh := workload.Uniform(37, procs*opsPer, 13, 24)

	h := &obs.Hook{}
	f, err := core.New(core.Config{Capacity: 50, Mode: trie.ModeTHCL}, store.NewInstrumented(store.NewMem(), h))
	if err != nil {
		panic(err)
	}
	f.SetObsHook(h)
	e, err := core.NewConcurrent(f)
	if err != nil {
		panic(err)
	}
	for _, k := range ks {
		if _, err := e.Put(k, []byte("v0")); err != nil {
			panic(err)
		}
	}

	// Spans attach only for the measured phases, so the preload's splits
	// do not pollute the stage breakdown. When cmd/thbench attached a
	// span-enabled observer (-trace-threshold), the experiment reports
	// into it, so the end-of-run panel carries this run's data; otherwise
	// it traces into a private one.
	o := hook.Observer()
	if !o.SpansEnabled() {
		o = obs.New(obs.Config{Spans: true, SlowOp: traceThreshold, SlowOpDepth: 16})
	}

	val := []byte("v1")
	phase := func(key func(w, i int) string) obs.Snapshot {
		h.Set(o)
		var wg sync.WaitGroup
		for w := 0; w < procs; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < opsPer; i++ {
					if err := putSpanned(o, e, key(w, i), val); err != nil {
						panic(err)
					}
				}
			}(w)
		}
		wg.Wait()
		h.Set(nil)
		return o.SnapshotSince(0)
	}

	over := phase(func(w, i int) string { return ks[(w*nkeys/procs+i)%nkeys] })
	o.ResetCounters()
	grow := phase(func(w, i int) string { return fresh[w*opsPer+i] })

	t := &Table{
		ID:      "contention",
		Title:   fmt.Sprintf("Intra-op span profile: %d writers on a mem-regime concurrent file (b=50, %d keys preloaded)", procs, nkeys),
		Headers: []string{"phase", "stage", "spans", "total", "share%", "p50", "p99"},
	}
	for _, ph := range []struct {
		name string
		snap obs.Snapshot
	}{{"overwrite", over}, {"growth", grow}} {
		var stageSum time.Duration
		for _, hs := range ph.snap.Stages {
			stageSum += hs.Sum
		}
		for _, sg := range obs.Stages() {
			hs, ok := ph.snap.Stages[sg.String()]
			if !ok {
				continue
			}
			t.AddRow(ph.name, sg.String(), hs.Count, hs.Sum.Round(time.Microsecond).String(),
				float64(hs.Sum)/float64(stageSum)*100,
				hs.P50.String(), hs.P99.String())
		}

		put := ph.snap.Ops[obs.OpPut.String()]
		if put.Sum > 0 {
			t.Note("%s: stages sum to %.1f%% of whole-op Put time (%v of %v over %d ops)",
				ph.name, float64(stageSum)/float64(put.Sum)*100,
				stageSum.Round(time.Millisecond), put.Sum.Round(time.Millisecond), put.Count)
		}
		waits := []obs.Stage{obs.StageLatchWait, obs.StageStructWait, obs.StageSubtreeWait, obs.StageFileLock}
		dominant, dominantSum := obs.Stage(0), time.Duration(-1)
		for _, sg := range waits {
			if hs, ok := ph.snap.Stages[sg.String()]; ok && hs.Sum > dominantSum {
				dominant, dominantSum = sg, hs.Sum
			}
		}
		if dominantSum > 0 {
			t.Note("%s: dominant wait source: %s (%.1f%% of span time)",
				ph.name, dominant, float64(dominantSum)/float64(stageSum)*100)
		}
		if sc := ph.snap.StructLock; sc != nil {
			t.Note("%s: flip lock: %d acquisitions, wait %v, hold %v",
				ph.name, sc.Count, sc.Wait.Round(time.Microsecond), sc.Hold.Round(time.Microsecond))
		}
		if len(ph.snap.Stripes) > 0 {
			var sw, sh time.Duration
			var sn int64
			for _, st := range ph.snap.Stripes {
				sw += st.Wait
				sh += st.Hold
				sn += st.Count
			}
			t.Note("%s: subtree stripes: %d active, %d acquisitions, wait %v, hold %v",
				ph.name, len(ph.snap.Stripes), sn, sw.Round(time.Microsecond), sh.Round(time.Microsecond))
			hot := make([]obs.BucketContention, len(ph.snap.Stripes))
			copy(hot, ph.snap.Stripes)
			sort.Slice(hot, func(i, j int) bool { return hot[i].Wait > hot[j].Wait })
			for i, st := range hot {
				if i == 3 {
					break
				}
				t.Note("%s: hot stripe %d: wait %v over %d acquires (held %v)",
					ph.name, st.Addr, st.Wait.Round(time.Microsecond), st.Count, st.Hold.Round(time.Microsecond))
			}
		}
		for i, bc := range ph.snap.Contention {
			if i == 3 {
				break
			}
			t.Note("%s: hot bucket %d: latch wait %v over %d acquires (held %v)",
				ph.name, bc.Addr, bc.Wait.Round(time.Microsecond), bc.Count, bc.Hold.Round(time.Microsecond))
		}
	}
	thr := "adaptive p99"
	if traceThreshold > 0 {
		thr = traceThreshold.String()
	}
	t.Note("slow ops captured in the growth phase: %d (threshold %s); wall-clock rows vary run to run", grow.SlowOpsTotal, thr)
	return t
}
