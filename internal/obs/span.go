package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one timed phase inside an instrumented operation. The whole-
// op histograms say *that* p99 regressed; the stage histograms say *where*
// the time went: searching the trie, waiting for (or holding) a bucket
// latch or the structural lock, probing the buffer pool, moving buckets
// through the store, or doing split/merge/redistribution work.
type Stage uint8

const (
	// StageTrieSearch is the in-memory access computation: the trie (or
	// arena) search, including MLTH page traversal.
	StageTrieSearch Stage = iota
	// StageFileLock is the wait for the public file lock.
	StageFileLock
	// StageLatchWait is the wait to acquire a bucket latch.
	StageLatchWait
	// StageLatchHold is time holding a bucket latch not attributed to a
	// finer stage (store I/O under the latch reports as its own stage).
	StageLatchHold
	// StageStructWait is the wait to acquire the structural lock.
	StageStructWait
	// StageStructHold is time under the structural lock not attributed to
	// a finer stage.
	StageStructHold
	// StageSubtreeWait is the wait to acquire a subtree stripe lock.
	StageSubtreeWait
	// StageSubtreeHold is time holding a subtree stripe lock not
	// attributed to a finer stage.
	StageSubtreeHold
	// StageCacheProbe is a bucket view served from a resident pool frame.
	StageCacheProbe
	// StageStoreRead is a bucket read that reached the store.
	StageStoreRead
	// StageStoreWrite is a bucket write to the store.
	StageStoreWrite
	// StageSplit is bucket split work (store phase and trie flip).
	StageSplit
	// StageMerge is deletion maintenance: merge/borrow probes and actions.
	StageMerge
	// StageRedistribute is a split resolved by shifting keys into an
	// existing neighbour bucket.
	StageRedistribute
	// StageWALAppend is framing and appending a record to the write-ahead
	// log device (buffered; durability comes from the fsync stage).
	StageWALAppend
	// StageWALFsync is the committer goroutine's log fsync. It is recorded
	// from the committer via Stage().Record, not span marks: the fsync is
	// shared by every operation in the commit group, so charging it to one
	// op's span would double count.
	StageWALFsync
	// StageCommitWait is an operation's wait for the group committer to
	// report its record durable — the rendezvous where N in-flight writes
	// share one fsync.
	StageCommitWait
	// StageOther is the residual the explicit marks did not claim.
	StageOther

	numStages
)

var stageNames = [numStages]string{
	StageTrieSearch:   "trie_search",
	StageFileLock:     "file_lock",
	StageLatchWait:    "latch_wait",
	StageLatchHold:    "latch_hold",
	StageStructWait:   "struct_wait",
	StageStructHold:   "struct_hold",
	StageSubtreeWait:  "subtree_wait",
	StageSubtreeHold:  "subtree_hold",
	StageCacheProbe:   "cache_probe",
	StageStoreRead:    "store_read",
	StageStoreWrite:   "store_write",
	StageSplit:        "split",
	StageMerge:        "merge",
	StageRedistribute: "redistribute",
	StageWALAppend:    "wal_append",
	StageWALFsync:     "wal_fsync",
	StageCommitWait:   "commit_wait",
	StageOther:        "other",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// MarshalText renders the stage name.
func (s Stage) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Stages enumerates every stage in declaration order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// maxHoldDepth bounds the lock-nesting a span tracks: the deepest legal
// nesting the lockorder analyzer admits is subtree stripes (up to three —
// a merge spans both in-order neighbours) above one bucket latch above the
// trie flip lock; one spare guards against future layers.
const maxHoldDepth = 6

// holdFrame is one lock acquisition a span is currently inside. Times are
// nanoseconds elapsed since the span started.
type holdFrame struct {
	addr     int32 // bucket address, or -1 for the structural lock
	acquired int64 // ns since span start when the lock was acquired
	wait     int64 // ns spent acquiring
}

// Span is the per-operation stage accounting one instrumented call carries
// through the layers. Attribution is sequential-mark: every Mark (and
// BeginHold/EndHold) reads the clock once and charges the interval since
// the previous mark to the named stage, so the stages of a finished span
// sum to its total — nothing is double counted, and what no mark claims
// lands in StageOther.
//
// A nil *Span is valid and free: every method no-ops, so engine code takes
// a span parameter unconditionally and the uninstrumented path pays only
// the nil checks.
//
// Spans are pooled: obtain one with Observer.StartSpan, finish it with
// Observer.FinishSpan (deferred, so every return path ends the span — the
// obsop analyzer enforces this), and do not retain it afterwards.
type Span struct {
	op      Op
	o       *Observer
	start   int64            // monotonic ns (since clockBase) at StartSpan
	last    int64            // ns elapsed since start at the previous mark
	touched uint32           // bitmask of stages charged (numStages <= 32)
	stages  [numStages]int64 // ns charged per stage
	holds   [maxHoldDepth]holdFrame
	nholds  int
	// worst latch wait observed (for the flight record's hot-bucket hint)
	worstAddr int32
	worstWait int64
}

// clockBase anchors span timestamps. Spans never need the wall clock, so
// every timestamp, the start included, is time.Since(clockBase): a single
// monotonic clock read, measurably cheaper than time.Now (which also
// reads the wall clock).
var clockBase = time.Now()

// monotonic returns nanoseconds since clockBase: the one clock read every
// span timestamp costs.
func monotonic() int64 { return int64(time.Since(clockBase)) }

// elapsed returns nanoseconds since the span started.
func (sp *Span) elapsed() int64 { return monotonic() - sp.start }

// Op returns the operation the span times.
func (sp *Span) Op() Op {
	if sp == nil {
		return 0
	}
	return sp.op
}

// Observer returns the observer the span reports to (nil on a nil span).
// Batch fan-out workers use it to open LatchTimers, which record into the
// same contention table.
func (sp *Span) Observer() *Observer {
	if sp == nil {
		return nil
	}
	return sp.o
}

// Mark charges the interval since the previous mark to stage and returns
// it. One clock read; nil-safe. Mark, BeginHold and EndHold are split into
// an inlinable nil check and an outlined body, so the nil span every
// untraced operation passes through the engines costs a compare, not a
// call.
func (sp *Span) Mark(stage Stage) time.Duration {
	if sp == nil {
		return 0
	}
	return sp.mark(stage)
}

func (sp *Span) mark(stage Stage) time.Duration {
	el := sp.elapsed()
	d := el - sp.last
	sp.stages[stage] += d
	sp.touched |= 1 << stage
	sp.last = el
	return time.Duration(d)
}

// Add charges an externally measured duration to stage without reading
// the clock (used when a component timed the interval itself).
func (sp *Span) Add(stage Stage, d time.Duration) {
	if sp == nil {
		return
	}
	sp.stages[stage] += int64(d)
	sp.touched |= 1 << stage
}

// BeginHold records a lock acquisition that just completed: the interval
// since the previous mark (the acquire wait) is charged to waitStage, and
// a hold frame opens for the matching EndHold. addr is the latched bucket,
// or -1 for the structural lock. Call it immediately after Lock returns.
func (sp *Span) BeginHold(addr int32, waitStage Stage) {
	if sp != nil {
		sp.beginHold(addr, waitStage)
	}
}

func (sp *Span) beginHold(addr int32, waitStage Stage) {
	el := sp.elapsed()
	wait := el - sp.last
	sp.stages[waitStage] += wait
	sp.touched |= 1 << waitStage
	sp.last = el
	if sp.nholds < maxHoldDepth {
		sp.holds[sp.nholds] = holdFrame{addr: addr, acquired: el, wait: wait}
		sp.nholds++
	}
	if addr >= 0 && wait > sp.worstWait {
		sp.worstAddr, sp.worstWait = addr, wait
	}
}

// EndHold closes the innermost hold frame: the interval since the previous
// mark (hold time not claimed by finer stages) is charged to holdStage,
// and the full wall occupancy of the lock — acquisition to now, interior
// stages included — is recorded in the observer's contention table. Call
// it immediately after Unlock.
func (sp *Span) EndHold(holdStage Stage) {
	if sp != nil {
		sp.endHold(holdStage)
	}
}

func (sp *Span) endHold(holdStage Stage) {
	el := sp.elapsed()
	sp.stages[holdStage] += el - sp.last
	sp.touched |= 1 << holdStage
	sp.last = el
	if sp.nholds == 0 {
		return
	}
	sp.nholds--
	f := sp.holds[sp.nholds]
	sp.o.RecordContention(f.addr, time.Duration(f.wait), time.Duration(el-f.acquired))
}

// contentionCell accumulates one lock's totals in the contention table.
type contentionCell struct {
	wait  atomic.Int64
	hold  atomic.Int64
	count atomic.Int64
}

// StructLockAddr is the pseudo-address keying the engine's global
// structural serialization point — since the subtree sharding, the trie
// flip lock — in the contention accounting (real bucket addresses are
// non-negative).
const StructLockAddr int32 = -1

// structAddr keys the structural lock in the contention accounting.
const structAddr = StructLockAddr

// stripeAddrBase is where the subtree stripe pseudo-addresses start:
// stripe k is recorded under -2-k, below the structural pseudo-address.
const stripeAddrBase int32 = -2

// StripeAddr returns the contention-table pseudo-address of subtree
// stripe k.
func StripeAddr(k int) int32 { return stripeAddrBase - int32(k) }

// IsStripeAddr reports whether addr is a subtree stripe pseudo-address.
func IsStripeAddr(addr int32) bool { return addr <= stripeAddrBase }

// StripeIndex recovers the stripe index from its pseudo-address.
func StripeIndex(addr int32) int { return int(stripeAddrBase - addr) }

// RecordContention adds one lock acquisition to the contention table:
// wait is the acquire latency, hold the wall occupancy. addr -1 is the
// structural (flip) lock; -2-k is subtree stripe k. Safe for concurrent
// use (the batch fan-out workers record directly); a no-op when spans are
// off.
func (o *Observer) RecordContention(addr int32, wait, hold time.Duration) {
	if o == nil || !o.cfg.Spans {
		return
	}
	var c *contentionCell
	if addr == structAddr {
		c = &o.structCell
	} else {
		v, ok := o.cont.Load(addr)
		if !ok {
			v, _ = o.cont.LoadOrStore(addr, &contentionCell{})
		}
		c = v.(*contentionCell)
	}
	c.wait.Add(int64(wait))
	c.hold.Add(int64(hold))
	c.count.Add(1)
}

// LatchTimer times one lock acquisition outside any span — the batch
// fan-out workers, which run in parallel and therefore cannot share their
// batch's span marks. It feeds only the contention table. The zero value
// (spans off) no-ops. Deterministic packages (core) use it instead of
// reading the clock themselves.
type LatchTimer struct {
	o    *Observer
	addr int32
	t0   time.Time
	t1   time.Time
}

// StartLatch opens a latch timer for bucket addr (-1 = structural lock).
// Call before Lock.
func (o *Observer) StartLatch(addr int32) LatchTimer {
	if o == nil || !o.cfg.Spans {
		return LatchTimer{}
	}
	return LatchTimer{o: o, addr: addr, t0: time.Now()}
}

// Acquired marks the wait-to-hold boundary. Call right after Lock returns.
func (lt *LatchTimer) Acquired() {
	if lt.o != nil {
		lt.t1 = time.Now()
	}
}

// Release records the acquisition in the contention table. Call right
// after Unlock.
func (lt *LatchTimer) Release() {
	if lt.o != nil {
		lt.o.RecordContention(lt.addr, lt.t1.Sub(lt.t0), time.Since(lt.t1))
	}
}

// SpansEnabled reports whether stage-level span tracing is on.
func (o *Observer) SpansEnabled() bool { return o != nil && o.cfg.Spans }

// StartSpan returns a pooled span for op, or nil when the observer is nil
// or spans are off (Config.Spans). Pair with a deferred FinishSpan.
func (o *Observer) StartSpan(op Op) *Span {
	if o == nil || !o.cfg.Spans {
		return nil
	}
	return o.startSpan(op)
}

func (o *Observer) startSpan(op Op) *Span {
	sp, _ := o.spanPool.Get().(*Span)
	if sp == nil {
		sp = &Span{}
	}
	// Pooled spans return with their stage array already zeroed (FinishSpan
	// clears exactly the touched entries), so the reset here is scalar-only
	// — no 100-byte struct copy on the hot path.
	sp.op, sp.o = op, o
	sp.last, sp.touched, sp.nholds = 0, 0, 0
	sp.worstAddr, sp.worstWait = -1, 0
	sp.start = monotonic()
	return sp
}

// FinishSpan closes the span: the residual since the last mark is charged
// to StageOther, the total is recorded as the op's latency sample, each
// touched stage records one sample in its histogram, and — when the total
// clears the slow-op threshold — the full breakdown is captured in the
// flight recorder. The span returns to the pool; do not use it afterwards.
func (o *Observer) FinishSpan(sp *Span) {
	if o != nil && sp != nil {
		o.finishSpan(sp)
	}
}

func (o *Observer) finishSpan(sp *Span) {
	el := sp.elapsed()
	if res := el - sp.last; res > 0 {
		sp.stages[StageOther] += res
		sp.touched |= 1 << StageOther
	}
	total := time.Duration(el)
	o.ops[sp.op].Record(total)
	for m := sp.touched; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		o.stages[i].Record(time.Duration(sp.stages[i]))
	}
	if total >= o.slowThreshold(sp.op) {
		o.flight.add(sp, total)
	}
	for m := sp.touched; m != 0; m &= m - 1 {
		sp.stages[bits.TrailingZeros32(m)] = 0
	}
	o.spanPool.Put(sp)
}

// Stage returns the histogram of stage (nil on a nil observer).
func (o *Observer) Stage(s Stage) *Histogram {
	if o == nil {
		return nil
	}
	return &o.stages[s]
}

const (
	// adaptiveEvery is how often (in finished spans per op) the adaptive
	// slow-op threshold re-derives the op's p99.
	adaptiveEvery = 256
	// adaptiveMin is the sample count before the adaptive threshold arms;
	// until then nothing is considered slow.
	adaptiveMin = 256
)

// slowThreshold returns the flight-recorder admission bound for op: the
// configured Config.SlowOp when set, else a rolling estimate of the op's
// p99 (recomputed every adaptiveEvery finishes, armed after adaptiveMin).
func (o *Observer) slowThreshold(op Op) time.Duration {
	if o.cfg.SlowOp > 0 {
		return o.cfg.SlowOp
	}
	n := o.spanFinishes[op].Add(1)
	if n >= adaptiveMin && n%adaptiveEvery == 0 {
		o.slowCutoff[op].Store(int64(o.ops[op].Quantile(0.99)))
	}
	if t := o.slowCutoff[op].Load(); t > 0 {
		return time.Duration(t)
	}
	return time.Duration(1<<63 - 1) // not armed yet
}

// SpanRecord is one flight-recorder entry: the complete stage breakdown of
// an operation that exceeded the slow-op threshold.
type SpanRecord struct {
	Seq   uint64        `json:"seq"`
	Op    Op            `json:"op"`
	Total time.Duration `json:"total_ns"`
	// Stages holds the per-stage charge for every stage the op touched.
	Stages map[string]time.Duration `json:"stages"`
	// WorstAddr is the bucket whose latch the op waited longest on (-1
	// when it never waited), WorstWait that wait — the hot-bucket hint.
	WorstAddr int32         `json:"worst_addr"`
	WorstWait time.Duration `json:"worst_wait_ns"`
}

// flightRecorder is the bounded ring of slow-op span breakdowns.
type flightRecorder struct {
	mu    sync.Mutex
	buf   []SpanRecord
	next  int
	total uint64
}

func newFlightRecorder(depth int) *flightRecorder {
	return &flightRecorder{buf: make([]SpanRecord, 0, depth)}
}

func (fr *flightRecorder) add(sp *Span, total time.Duration) {
	stages := make(map[string]time.Duration, 4)
	for i := range sp.stages {
		if sp.stages[i] > 0 {
			stages[Stage(i).String()] = time.Duration(sp.stages[i])
		}
	}
	fr.mu.Lock()
	rec := SpanRecord{
		Seq: fr.total, Op: sp.op, Total: total, Stages: stages,
		WorstAddr: sp.worstAddr, WorstWait: time.Duration(sp.worstWait),
	}
	fr.total++
	if len(fr.buf) < cap(fr.buf) {
		fr.buf = append(fr.buf, rec)
	} else {
		fr.buf[fr.next] = rec
		fr.next++
		if fr.next == len(fr.buf) {
			fr.next = 0
		}
	}
	fr.mu.Unlock()
}

// records returns the retained slow ops, oldest first.
func (fr *flightRecorder) records() []SpanRecord {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]SpanRecord, 0, len(fr.buf))
	out = append(out, fr.buf[fr.next:]...)
	out = append(out, fr.buf[:fr.next]...)
	return out
}

// count returns the lifetime number of slow ops recorded (ring eviction
// does not decrease it).
func (fr *flightRecorder) count() uint64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.total
}

// SlowOps returns the flight recorder's retained records, oldest first,
// and the lifetime total of slow ops captured.
func (o *Observer) SlowOps() ([]SpanRecord, uint64) {
	if o == nil {
		return nil, 0
	}
	return o.flight.records(), o.flight.count()
}

// BucketContention is one row of the contention table: the accumulated
// latch acquire wait and wall occupancy of a bucket (or, with Addr -1, the
// structural lock).
type BucketContention struct {
	Addr  int32         `json:"addr"`
	Wait  time.Duration `json:"wait_ns"`
	Hold  time.Duration `json:"hold_ns"`
	Count int64         `json:"count"`
}

// TopContended returns the k buckets with the largest accumulated latch
// wait, descending (ties broken by address for determinism across calls).
// Subtree stripe pseudo-addresses share the table but are excluded here;
// StripeContention reports them.
func (o *Observer) TopContended(k int) []BucketContention {
	if o == nil || k <= 0 {
		return nil
	}
	var rows []BucketContention
	o.cont.Range(func(key, value any) bool {
		addr := key.(int32)
		if addr < 0 {
			return true
		}
		c := value.(*contentionCell)
		rows = append(rows, BucketContention{
			Addr: addr, Wait: time.Duration(c.wait.Load()),
			Hold: time.Duration(c.hold.Load()), Count: c.count.Load(),
		})
		return true
	})
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Wait != rows[j].Wait {
			return rows[i].Wait > rows[j].Wait
		}
		return rows[i].Addr < rows[j].Addr
	})
	if len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// StructuralContention returns the structural (flip) lock's accumulated
// wait and occupancy.
func (o *Observer) StructuralContention() BucketContention {
	if o == nil {
		return BucketContention{Addr: structAddr}
	}
	return BucketContention{
		Addr: structAddr, Wait: time.Duration(o.structCell.wait.Load()),
		Hold: time.Duration(o.structCell.hold.Load()), Count: o.structCell.count.Load(),
	}
}

// StripeContention returns the per-stripe wait/hold totals of the subtree
// lock table, ascending by stripe index. Addr carries the stripe index,
// not the pseudo-address.
func (o *Observer) StripeContention() []BucketContention {
	if o == nil {
		return nil
	}
	var rows []BucketContention
	o.cont.Range(func(key, value any) bool {
		addr := key.(int32)
		if !IsStripeAddr(addr) {
			return true
		}
		c := value.(*contentionCell)
		rows = append(rows, BucketContention{
			Addr: int32(StripeIndex(addr)), Wait: time.Duration(c.wait.Load()),
			Hold: time.Duration(c.hold.Load()), Count: c.count.Load(),
		})
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].Addr < rows[j].Addr })
	return rows
}
