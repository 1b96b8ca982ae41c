package bench

import (
	"triehash/internal/core"
	"triehash/internal/obs"
	"triehash/internal/store"
	"triehash/internal/workload"
)

// hook is the package's shared observability attachment point: every file
// an experiment builds through mustFile reports to it, so cmd/thbench can
// expose a whole run over -metrics-addr by pointing one Observer at it.
var hook = &obs.Hook{}

// Observe attaches o to every file the experiments build from now on
// (nil detaches).
func Observe(o *obs.Observer) { hook.Set(o) }

// ObsCache quantifies the buffer pool the Options.CacheFrames knob buys:
// the same workload runs against pools of increasing size and the table
// reports the pool's hit/miss counters next to the transfers that still
// reached the simulated disk. The paper's access-cost model assumes no
// pool (the frames=0 row); the sweep shows how far a small pool moves a
// run from that model.
func ObsCache() *Table {
	const n = 20000
	ks := workload.Uniform(21, n, 3, 12)
	t := &Table{
		ID:      "obs-cache",
		Title:   "Buffer pool hit rate versus frames (random workload, b=20)",
		Headers: []string{"frames", "hits", "misses", "hit%", "disk reads", "reads saved%"},
	}
	var baseReads int64
	for _, frames := range []int{0, 8, 32, 128, 512} {
		mem := store.NewMem()
		var st store.Store = mem
		if frames > 0 {
			st = store.NewSharded(mem, frames, 0)
		}
		f, err := core.New(core.Config{Capacity: 20}, store.NewInstrumented(st, hook))
		if err != nil {
			panic(err)
		}
		f.SetObsHook(hook)
		for _, k := range ks {
			if _, err := f.Put(k, nil); err != nil {
				panic(err)
			}
		}
		for _, k := range ks {
			if _, err := f.Get(k); err != nil {
				panic(err)
			}
		}
		diskReads := mem.Counters().Reads
		if frames == 0 {
			baseReads = diskReads
			t.AddRow(frames, 0, 0, "-", diskReads, "-")
			continue
		}
		pool := store.AsSharded(st)
		hits, misses := pool.Hits(), pool.Misses()
		t.AddRow(frames, hits, misses,
			float64(hits)/float64(hits+misses)*100,
			diskReads,
			float64(baseReads-diskReads)/float64(baseReads)*100)
	}
	t.Note("write-through pool: writes always reach the disk; only reads are saved")
	t.Note("the frames=0 row is the paper's model: every logical access is a transfer")
	return t
}
