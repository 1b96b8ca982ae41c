package obs

import (
	"strings"
	"testing"
	"time"
)

func TestSpanNilSafe(t *testing.T) {
	var o *Observer
	sp := o.StartSpan(OpGet)
	if sp != nil {
		t.Fatalf("nil observer StartSpan = %v, want nil", sp)
	}
	// Every span method must no-op on nil.
	sp.Mark(StageTrieSearch)
	sp.Add(StageStoreRead, time.Millisecond)
	sp.BeginHold(3, StageLatchWait)
	sp.EndHold(StageLatchHold)
	_ = sp.Op()
	o.FinishSpan(sp)
	o.RecordContention(1, time.Millisecond, time.Millisecond)
	if got := o.TopContended(4); got != nil {
		t.Fatalf("nil observer TopContended = %v, want nil", got)
	}
	if recs, n := o.SlowOps(); recs != nil || n != 0 {
		t.Fatalf("nil observer SlowOps = %v, %d", recs, n)
	}
	lt := o.StartLatch(7)
	lt.Acquired()
	lt.Release()
}

func TestSpanDisabledByConfig(t *testing.T) {
	o := New(Config{}) // Spans off
	if o.SpansEnabled() {
		t.Fatal("SpansEnabled with Spans unset")
	}
	if sp := o.StartSpan(OpGet); sp != nil {
		t.Fatalf("StartSpan with spans off = %v, want nil", sp)
	}
	o.RecordContention(1, time.Millisecond, time.Millisecond)
	if rows := o.TopContended(4); len(rows) != 0 {
		t.Fatalf("contention recorded with spans off: %v", rows)
	}
}

func TestSpanStagesSumToTotal(t *testing.T) {
	o := New(Config{Spans: true})
	sp := o.StartSpan(OpPut)
	if sp == nil {
		t.Fatal("StartSpan returned nil with spans on")
	}
	time.Sleep(time.Millisecond)
	sp.Mark(StageTrieSearch)
	time.Sleep(time.Millisecond)
	sp.Mark(StageStoreWrite)
	o.FinishSpan(sp)

	total := time.Duration(o.Op(OpPut).Sum())
	var stageSum time.Duration
	for _, s := range Stages() {
		stageSum += time.Duration(o.Stage(s).Sum())
	}
	if total == 0 {
		t.Fatal("whole-op histogram got no sample")
	}
	// Sequential-mark attribution: stage charges partition the total
	// exactly (clock granularity aside).
	if diff := total - stageSum; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("stages sum %v, whole-op total %v (diff %v)", stageSum, total, diff)
	}
	if o.Stage(StageTrieSearch).Count() != 1 || o.Stage(StageStoreWrite).Count() != 1 {
		t.Fatal("marked stages missing their samples")
	}
	if o.Stage(StageTrieSearch).Sum() < time.Millisecond/2 {
		t.Fatalf("trie_search charged only %v", o.Stage(StageTrieSearch).Sum())
	}
}

func TestSpanHoldsFeedContentionTable(t *testing.T) {
	o := New(Config{Spans: true})
	sp := o.StartSpan(OpPut)
	sp.BeginHold(42, StageLatchWait)
	time.Sleep(time.Millisecond)
	sp.EndHold(StageLatchHold)
	sp.BeginHold(structAddr, StageStructWait)
	sp.EndHold(StageStructHold)
	o.FinishSpan(sp)

	rows := o.TopContended(8)
	if len(rows) != 1 || rows[0].Addr != 42 {
		t.Fatalf("TopContended = %+v, want one row for bucket 42", rows)
	}
	if rows[0].Count != 1 || rows[0].Hold < time.Millisecond/2 {
		t.Fatalf("bucket 42 row = %+v, want count 1, hold >= ~1ms", rows[0])
	}
	sc := o.StructuralContention()
	if sc.Addr != structAddr || sc.Count != 1 {
		t.Fatalf("StructuralContention = %+v, want count 1 at addr -1", sc)
	}
}

func TestTopContendedOrdering(t *testing.T) {
	o := New(Config{Spans: true})
	o.RecordContention(5, 3*time.Millisecond, time.Millisecond)
	o.RecordContention(9, 7*time.Millisecond, time.Millisecond)
	o.RecordContention(2, time.Millisecond, time.Millisecond)
	rows := o.TopContended(2)
	if len(rows) != 2 || rows[0].Addr != 9 || rows[1].Addr != 5 {
		t.Fatalf("TopContended(2) = %+v, want buckets 9 then 5", rows)
	}
}

func TestFlightRecorderFixedThreshold(t *testing.T) {
	o := New(Config{Spans: true, SlowOp: time.Millisecond, SlowOpDepth: 2})

	fast := o.StartSpan(OpGet)
	o.FinishSpan(fast)
	if recs, n := o.SlowOps(); len(recs) != 0 || n != 0 {
		t.Fatalf("fast op recorded as slow: %v, %d", recs, n)
	}

	for i := 0; i < 3; i++ {
		sp := o.StartSpan(OpGet)
		sp.BeginHold(int32(i), StageLatchWait)
		time.Sleep(2 * time.Millisecond)
		sp.EndHold(StageLatchHold)
		o.FinishSpan(sp)
	}
	recs, n := o.SlowOps()
	if n != 3 {
		t.Fatalf("lifetime slow-op count = %d, want 3", n)
	}
	if len(recs) != 2 {
		t.Fatalf("retained %d records, want ring depth 2", len(recs))
	}
	// Oldest-first: the ring dropped seq 0, kept 1 and 2.
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("record seqs = %d, %d, want 1, 2", recs[0].Seq, recs[1].Seq)
	}
	r := recs[1]
	if r.Op != OpGet || r.Total < 2*time.Millisecond {
		t.Fatalf("record = %+v, want OpGet with total >= 2ms", r)
	}
	if r.Stages["latch_hold"] < time.Millisecond {
		t.Fatalf("record stages = %v, want latch_hold >= 1ms", r.Stages)
	}
	if r.WorstAddr != 2 {
		t.Fatalf("record worst addr = %d, want 2", r.WorstAddr)
	}
}

func TestFlightRecorderAdaptiveThreshold(t *testing.T) {
	o := New(Config{Spans: true}) // SlowOp 0 -> adaptive
	// Below adaptiveMin samples nothing is considered slow.
	for i := 0; i < adaptiveMin-1; i++ {
		o.FinishSpan(o.StartSpan(OpGet))
	}
	if _, n := o.SlowOps(); n != 0 {
		t.Fatalf("%d slow ops before the adaptive threshold armed", n)
	}
	// The arming finish derives p99 from the fast population; a much
	// slower op afterwards must be captured. The arming span itself is in
	// that population and is compared against the p99 it helped derive, so
	// it is admitted whenever it lands in the top 1%: count from after it.
	o.FinishSpan(o.StartSpan(OpGet))
	if o.slowCutoff[OpGet].Load() == 0 {
		t.Fatal("adaptive cutoff not derived at the arming finish")
	}
	_, armed := o.SlowOps()
	sp := o.StartSpan(OpGet)
	time.Sleep(5 * time.Millisecond)
	sp.Mark(StageStoreRead)
	o.FinishSpan(sp)
	if _, n := o.SlowOps(); n != armed+1 {
		t.Fatalf("slow op count went from %d to %d after an op ~1000x the armed p99, want +1", armed, n)
	}
}

func TestSpanResetCounters(t *testing.T) {
	o := New(Config{Spans: true, SlowOp: time.Microsecond})
	sp := o.StartSpan(OpPut)
	sp.BeginHold(7, StageLatchWait)
	time.Sleep(time.Millisecond)
	sp.EndHold(StageLatchHold)
	o.FinishSpan(sp)

	o.ResetCounters()
	for _, s := range Stages() {
		if o.Stage(s).Count() != 0 {
			t.Fatalf("stage %v survived ResetCounters", s)
		}
	}
	if rows := o.TopContended(8); len(rows) != 0 {
		t.Fatalf("contention table survived ResetCounters: %v", rows)
	}
	if sc := o.StructuralContention(); sc.Count != 0 {
		t.Fatalf("structural cell survived ResetCounters: %+v", sc)
	}
	// The flight recorder is preserved, like the event ring.
	if _, n := o.SlowOps(); n != 1 {
		t.Fatalf("flight recorder lifetime count = %d after reset, want 1", n)
	}
}

func TestLatchTimer(t *testing.T) {
	o := New(Config{Spans: true})
	lt := o.StartLatch(11)
	time.Sleep(time.Millisecond)
	lt.Acquired()
	time.Sleep(time.Millisecond)
	lt.Release()
	rows := o.TopContended(1)
	if len(rows) != 1 || rows[0].Addr != 11 {
		t.Fatalf("TopContended = %+v, want bucket 11", rows)
	}
	if rows[0].Wait < time.Millisecond/2 || rows[0].Hold < time.Millisecond/2 {
		t.Fatalf("latch timer row = %+v, want ~1ms wait and hold", rows[0])
	}
}

func TestWriteSpanPanel(t *testing.T) {
	o := New(Config{Spans: true, SlowOp: time.Microsecond})
	sp := o.StartSpan(OpPut)
	sp.BeginHold(structAddr, StageStructWait)
	sp.BeginHold(42, StageLatchWait)
	time.Sleep(time.Millisecond)
	sp.EndHold(StageLatchHold)
	sp.EndHold(StageStructHold)
	o.FinishSpan(sp)

	var b strings.Builder
	WriteSpanPanel(&b, o.SnapshotSince(0))
	out := b.String()
	for _, want := range []string{"span stages", "latch_hold", "flip lock", "contended buckets", "42", "slow ops", "worst_latch=bucket 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("panel missing %q:\n%s", want, out)
		}
	}

	// No span data -> nothing rendered.
	b.Reset()
	WriteSpanPanel(&b, New(Config{}).SnapshotSince(0))
	if b.Len() != 0 {
		t.Fatalf("panel rendered without span data:\n%s", b.String())
	}
}
