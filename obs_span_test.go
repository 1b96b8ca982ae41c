package triehash

import (
	"fmt"
	"testing"
	"time"

	"triehash/internal/obs"
	"triehash/internal/workload"
)

// publicOps are the operations dispatched through the public API as spans.
var publicOps = []Op{OpGet, OpPut, OpDelete, OpRange, OpGetBatch, OpPutBatch}

// TestSpanStagesSumToWholeOp is the span-attribution acceptance check,
// through the public API: with span tracing on, every operation's stage
// charges must sum exactly to its recorded whole-op total — sequential
// marking charges each clock interval to exactly one stage, and the
// residual lands in StageOther, so in aggregate the per-stage histogram
// sums equal the public operations' histogram sums to the nanosecond.
// (OpRead/OpWrite are store-level samples, not span totals, and stay out
// of the comparison.) Every public operation, readers included, waits for
// the file lock inside its span, so the file_lock stage holds exactly one
// sample per span.
func TestSpanStagesSumToWholeOp(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{BucketCapacity: 20}},
		{"concurrent", Options{BucketCapacity: 20, Concurrent: true}},
		{"mlth", Options{BucketCapacity: 20, PageCapacity: 32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Create(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			o := NewObserver(ObserverConfig{Spans: true})
			f.Observe(o)

			ks := workload.Uniform(11, 4000, 3, 12)
			for _, k := range ks {
				if err := f.Put(k, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range ks[:1000] {
				if _, err := f.Get(k); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Range("", "", func(string, []byte) bool { return true }); err != nil {
				t.Fatal(err)
			}
			// Half the batch replaces present keys, half inserts fresh
			// ones, so overflowing records split under the batch's span.
			bk := append(append([]string(nil), ks[:500]...), workload.Uniform(12, 500, 3, 12)...)
			vals := make([][]byte, len(bk))
			for i := range vals {
				vals[i] = []byte("w")
			}
			splits := o.EventCount(EvSplit)
			for _, e := range f.PutBatch(bk, vals) {
				if e != nil {
					t.Fatal(e)
				}
			}
			if o.EventCount(EvSplit) == splits {
				t.Fatal("the batch split no bucket")
			}
			if _, errs := f.GetBatch(ks[500:1000]); errs != nil {
				for _, e := range errs {
					if e != nil {
						t.Fatal(e)
					}
				}
			}
			for _, k := range ks[:800] {
				if err := f.Delete(k); err != nil {
					t.Fatal(err)
				}
			}

			var stageSum, opSum time.Duration
			var spans uint64
			for _, s := range obs.Stages() {
				stageSum += o.Stage(s).Sum()
			}
			for _, op := range publicOps {
				opSum += o.Op(op).Sum()
				spans += o.Op(op).Count()
			}
			if spans == 0 {
				t.Fatal("no spans recorded")
			}
			if stageSum != opSum {
				t.Errorf("stage charges sum to %v but whole-op totals sum to %v (diff %v over %d spans)",
					stageSum, opSum, stageSum-opSum, spans)
			}
			if n := o.Stage(obs.StageFileLock).Count(); n != spans {
				t.Errorf("file_lock stage has %d samples, want one per public span (%d)", n, spans)
			}
		})
	}
}

// TestDifferentialStructuralEvents runs the same single-threaded workload
// under the global-lock and the concurrent engine and requires the emitted
// structural-event counts — splits, merges, borrows — to be identical:
// the /VID87/ engine changes how structure changes are protected, never
// which structure changes happen. (Redistribution is excluded because the
// concurrent engine rejects it by construction.)
func TestDifferentialStructuralEvents(t *testing.T) {
	run := func(opts Options) map[EventType]uint64 {
		t.Helper()
		f, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		o := NewObserver(ObserverConfig{})
		f.Observe(o)
		ks := workload.Uniform(23, 6000, 3, 12)
		for _, k := range ks {
			if err := f.Put(k, []byte(fmt.Sprintf("v-%s", k))); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range ks[:3000] {
			if err := f.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range ks[:1500] {
			if err := f.Put(k, []byte("again")); err != nil {
				t.Fatal(err)
			}
		}
		counts := make(map[EventType]uint64)
		for _, et := range []EventType{EvSplit, EvMerge, EvBorrow, EvNilAlloc} {
			counts[et] = o.EventCount(et)
		}
		return counts
	}

	serial := run(Options{BucketCapacity: 20})
	concurrent := run(Options{BucketCapacity: 20, Concurrent: true})
	for _, et := range []EventType{EvSplit, EvMerge, EvBorrow, EvNilAlloc} {
		if serial[et] != concurrent[et] {
			t.Errorf("%v events: serial engine emitted %d, concurrent engine %d",
				et, serial[et], concurrent[et])
		}
	}
	if serial[EvSplit] == 0 {
		t.Error("workload produced no splits; the differential checks nothing")
	}
}
