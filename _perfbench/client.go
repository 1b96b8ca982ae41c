package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"triehash"
)

// Operation kinds, as the benchmark's own spans name them.
const (
	opGet uint8 = iota
	opPut
	opDelete
	opRange
	numOps
)

var opNames = [numOps]string{"get", "put", "delete", "range"}

// Latency classes of the end-to-end metrics: a write is a Put or a Delete.
const (
	classGet = iota
	classWrite
	classRange
	numClasses
)

var opClass = [numOps]int{classGet, classWrite, classWrite, classRange}

// model is the benchmark's knowledge of the file's content. ver[id] is the
// live version of key id, or -1 when the key is absent. Client c only ever
// touches the ids it owns, so no entry is shared between goroutines.
type model struct {
	ver []int32
	pos []int32 // id -> index in its owner's live list, -1 when absent
}

func newModel(n, preload int) *model {
	m := &model{ver: make([]int32, n), pos: make([]int32, n)}
	for id := range m.ver {
		m.ver[id], m.pos[id] = -1, -1
		if id < preload {
			m.ver[id] = 0
		}
	}
	return m
}

// span is one public call as the benchmark saw it: start offset from the
// phase start and duration, both in nanoseconds.
type span struct {
	start int64
	dur   uint32
	op    uint8
}

// maxSpans bounds the spans one client keeps per traced phase (16 B each).
const maxSpans = 1 << 20

// The benchmark's own allocations during a phase come in fixed 64 KiB
// blocks it counts itself, so the MemStats deltas can be reduced to the
// program's allocations exactly.
const (
	blockBytes    = 64 << 10
	sampleChunk   = blockBytes / 4 // latencies per block
	valuesPerSlab = blockBytes / valueSize
	maxChunks     = 1024 // chunk-list capacity, set aside before any phase
)

// own counts the blocks the benchmark allocated during a phase.
type own struct{ allocs, bytes int64 }

func (o *own) block() {
	o.allocs++
	o.bytes += blockBytes
}

// samples is an append-only list of latencies in nanoseconds, held in
// fixed blocks: recording never copies, and a reset keeps the blocks.
type samples struct {
	chunks [][]uint32
	n      int
}

func (s *samples) add(ns uint32, o *own) {
	if s.n == len(s.chunks)*sampleChunk {
		s.chunks = append(s.chunks, make([]uint32, sampleChunk))
		o.block()
	}
	s.chunks[s.n/sampleChunk][s.n%sampleChunk] = ns
	s.n++
}

// appendTo appends every sample to dst.
func (s *samples) appendTo(dst []uint32) []uint32 {
	for i, c := range s.chunks {
		dst = append(dst, c[:min(sampleChunk, s.n-i*sampleChunk)]...)
		if s.n <= (i+1)*sampleChunk {
			break
		}
	}
	return dst
}

// client is one closed-loop caller. It owns the key ids congruent to its
// index modulo the client count, so it knows the exact expected result of
// every call it makes.
type client struct {
	idx, n  int
	sp      spec
	in      *inputs
	m       *model
	rng     *rand.Rand
	zipf    *rand.Zipf
	owned   []int32 // ids this client has written: preload, then inserts
	live    []int32 // live ids; model.pos is the inverse (workloads that delete)
	pool    []int32 // insert ids still unused, in order
	scratch []byte
	slab    []byte // unused tail of the current value block
	rkeys   []string
	rvals   []byte
	rlens   []int
	collect func(key string, value []byte) bool

	// Per-phase accumulators, reset by runPhase.
	lat       [numClasses]samples
	winOps    [numWindows]int64 // operations completed in each window
	winDur    time.Duration     // 0: the whole phase is one window
	own       own
	spans     []span
	traced    bool
	t0        time.Time
	ops       int64
	failed    int64
	callNs    int64
	userBytes int64
	poolDry   int64
	firstErr  error
}

func newClient(idx, n int, sp spec, in *inputs, m *model, seed int64) *client {
	c := &client{
		idx: idx, n: n, sp: sp, in: in, m: m, rng: clientRand(seed, idx), scratch: make([]byte, valueSize),
		rkeys: make([]string, 0, rangeLen), rvals: make([]byte, 0, rangeLen*valueSize), rlens: make([]int, 0, rangeLen),
	}
	for id := in.preload + idx; id < len(in.keys); id += n {
		c.pool = append(c.pool, int32(id))
	}
	// owned and live have room for every insert, so a phase never grows them.
	c.owned = make([]int32, 0, in.preload/n+1+len(c.pool))
	for id := idx; id < in.preload; id += n {
		c.owned = append(c.owned, int32(id))
	}
	if sp.Mix.Delete > 0 {
		c.live = append(make([]int32, 0, cap(c.owned)), c.owned...)
		for i, id := range c.live {
			m.pos[id] = int32(i)
		}
	}
	for cl := range c.lat {
		c.lat[cl].chunks = make([][]uint32, 0, maxChunks)
	}
	if sp.Zipf && len(c.owned) > 1 {
		c.zipf = rand.NewZipf(c.rng, zipfS, zipfV, uint64(len(c.owned)-1))
	}
	c.collect = func(key string, value []byte) bool {
		c.rkeys = append(c.rkeys, key)
		c.rvals = append(c.rvals, value...)
		c.rlens = append(c.rlens, len(value))
		return len(c.rkeys) < rangeLen
	}
	return c
}

// pick draws the next operation from the workload's mix.
func (c *client) pick() uint8 {
	r := c.rng.Intn(1000)
	mx := c.sp.Mix
	switch {
	case r < mx.Get:
		return opGet
	case r < mx.Get+mx.Range:
		return opRange
	case r < mx.Get+mx.Range+mx.Delete:
		if len(c.live) > 1 {
			return opDelete
		}
		return opPut
	default:
		return opPut
	}
}

// readID chooses the key a Get or Range starts from: Zipf-skewed or
// uniform over every id the client has written (deleted ones included, so
// Gets also check that deleted keys stay gone).
func (c *client) readID() int32 {
	if c.zipf != nil {
		return c.owned[c.zipf.Uint64()]
	}
	return c.owned[c.rng.Intn(len(c.owned))]
}

// overwriteID chooses a live key to overwrite or delete.
func (c *client) overwriteID() int32 {
	if c.live != nil {
		return c.live[c.rng.Intn(len(c.live))]
	}
	return c.readID()
}

// insert reports whether the next Put should add a new key.
func (c *client) insert() bool {
	mx := c.sp.Mix
	if mx.Insert == 0 {
		return false
	}
	if c.rng.Intn(mx.Insert+mx.Overwrite) >= mx.Insert {
		return false
	}
	if len(c.pool) == 0 {
		c.poolDry++
		return false
	}
	return true
}

func (c *client) record(op uint8, t time.Time, d time.Duration) {
	w := 0
	if c.winDur > 0 {
		w = min(int(t.Add(d).Sub(c.t0)/c.winDur), numWindows-1)
	}
	c.winOps[w]++
	ns := uint32(min(int64(d), math.MaxUint32))
	c.lat[opClass[op]].add(ns, &c.own)
	c.ops++
	c.callNs += int64(d)
	if c.traced && len(c.spans) < maxSpans {
		c.spans = append(c.spans, span{start: int64(t.Sub(c.t0)), dur: ns, op: op})
	}
}

// value returns a new value of (id, ver), carved from a counted block. Put
// keeps the slice it is given, so every value needs memory of its own.
func (c *client) value(id int32, ver uint32) []byte {
	if len(c.slab) < valueSize {
		c.slab = make([]byte, valuesPerSlab*valueSize, blockBytes)
		c.own.block()
	}
	v := c.slab[:valueSize:valueSize]
	c.slab = c.slab[valueSize:]
	fillValue(v, id, ver)
	return v
}

// fail counts an operation that returned an error or a wrong result.
func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// step runs one operation, times the call alone, then checks its result
// against the model.
func (c *client) step(f *triehash.File) {
	switch op := c.pick(); op {
	case opGet:
		id := c.readID()
		t := time.Now()
		v, err := f.Get(c.in.keys[id])
		c.record(op, t, time.Since(t))
		if err := readMismatch(v, err, id, c.m.ver[id], c.scratch); err != nil {
			c.fail(fmt.Errorf("get %q: %w", c.in.keys[id], err))
		}
	case opRange:
		id := c.readID()
		c.rkeys, c.rvals, c.rlens = c.rkeys[:0], c.rvals[:0], c.rlens[:0]
		t := time.Now()
		err := f.Range(c.in.keys[id], "", c.collect)
		c.record(op, t, time.Since(t))
		c.checkRange(id, err)
	case opDelete:
		id := c.overwriteID()
		t := time.Now()
		err := f.Delete(c.in.keys[id])
		c.record(op, t, time.Since(t))
		if err != nil {
			c.fail(fmt.Errorf("delete %q: %w", c.in.keys[id], err))
			return
		}
		c.m.ver[id] = -1
		c.dropLive(id)
	case opPut:
		var id int32
		var ver uint32
		if c.insert() {
			id, c.pool = c.pool[0], c.pool[1:]
		} else {
			id = c.overwriteID()
			ver = uint32(c.m.ver[id]) + 1
		}
		key, val := c.in.keys[id], c.value(id, ver)
		t := time.Now()
		err := f.Put(key, val)
		c.record(op, t, time.Since(t))
		if err != nil {
			c.fail(fmt.Errorf("put %q: %w", key, err))
			return
		}
		c.userBytes += int64(len(key) + len(val))
		if c.m.ver[id] < 0 {
			c.owned = append(c.owned, id)
			c.addLive(id)
		}
		c.m.ver[id] = int32(ver)
	}
}

func (c *client) addLive(id int32) {
	if c.live != nil {
		c.m.pos[id] = int32(len(c.live))
		c.live = append(c.live, id)
	}
}

func (c *client) dropLive(id int32) {
	i := c.m.pos[id]
	last := c.live[len(c.live)-1]
	c.live[i] = last
	c.m.pos[last] = i
	c.live = c.live[:len(c.live)-1]
	c.m.pos[id] = -1
}

// readMismatch compares a Get of key id with its model version ver (-1:
// absent) and returns what differs, or nil: a live key must return its
// exact value, an absent one ErrNotFound.
func readMismatch(v []byte, err error, id, ver int32, scratch []byte) error {
	switch {
	case ver < 0 && errors.Is(err, triehash.ErrNotFound):
		return nil
	case ver < 0 && err == nil:
		return errors.New("absent key served")
	case err != nil:
		return err
	case !valueOK(v, scratch, id, uint32(ver)):
		return errors.New("wrong value")
	}
	return nil
}

// checkRange verifies a Range of up to 100 records starting at key id: the
// count, the order and bounds (each key must be the next preloaded key in
// sorted order, which workloads with ranges never insert into or delete
// from), the exact value of this client's keys and a well-formed value of
// the other clients' keys, which may be changing concurrently.
func (c *client) checkRange(id int32, err error) {
	from := c.in.keys[id]
	if err != nil {
		c.fail(fmt.Errorf("range from %q: %w", from, err))
		return
	}
	pos := int(c.in.rank[id])
	want := min(rangeLen, len(c.in.sorted)-pos)
	if len(c.rkeys) != want {
		c.fail(fmt.Errorf("range from %q: %d records, want %d", from, len(c.rkeys), want))
		return
	}
	off := 0
	for i, k := range c.rkeys {
		wid := c.in.sorted[pos+i]
		v := c.rvals[off : off+c.rlens[i]]
		off += c.rlens[i]
		ok := k == c.in.keys[wid]
		if ok && int(wid)%c.n == c.idx {
			ok = valueOK(v, c.scratch, wid, uint32(c.m.ver[wid]))
		} else if ok {
			ok = valueOfKey(v, c.scratch, wid)
		}
		if !ok {
			c.fail(fmt.Errorf("range from %q: record %d is %q, want key %q with its value", from, i, k, c.in.keys[wid]))
			return
		}
	}
}

// numWindows is how many equal windows a timed phase is cut into. The
// throughput is computed per window and reported as the median over the
// windows, so a burst of interference from outside the process moves one
// window, not the result. Latency percentiles are taken over the whole
// phase instead: the program's own periodic work, such as a GC cycle about
// once a second on resident-mixed or a checkpoint on durable-ingest, falls
// in some windows and not others, and a median over windows flipped
// between the two.
const numWindows = 10

// phase is what one timed phase measured, summed over its clients.
type phase struct {
	wall      time.Duration
	ops       int64
	failed    int64
	callNs    int64
	userBytes int64
	poolDry   int64
	own       own                  // the benchmark's own allocations
	rates     []float64            // operations per second in each window
	lat       [numClasses][]uint32 // every latency of the phase by class, sorted
	spans     [][]span             // per client, when traced
	firstErr  error
}

// latency returns the q-quantile of class cl in microseconds and the
// number of samples behind it.
func (p phase) latency(cl int, q float64) (us float64, samples int) {
	return quantile(p.lat[cl], q), len(p.lat[cl])
}

// runPhase runs every client closed-loop until the deadline (or for
// opsPerClient operations each, when that is positive) and gathers what
// they measured.
func runPhase(f *triehash.File, clients []*client, d time.Duration, opsPerClient int64, traced bool) phase {
	var wg sync.WaitGroup
	var deadline time.Time
	start := make(chan struct{})
	for _, c := range clients {
		for i := range c.lat {
			c.lat[i].n = 0
		}
		c.winOps, c.winDur = [numWindows]int64{}, 0
		if opsPerClient <= 0 {
			c.winDur = d / numWindows
		}
		c.spans, c.traced = nil, traced
		if traced {
			c.spans = make([]span, 0, maxSpans)
		}
		c.ops, c.failed, c.callNs, c.userBytes, c.poolDry, c.firstErr, c.own = 0, 0, 0, 0, 0, nil, own{}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			<-start
			for opsPerClient <= 0 || c.ops < opsPerClient {
				if opsPerClient <= 0 && c.ops%16 == 0 && !time.Now().Before(deadline) {
					break
				}
				c.step(f)
			}
		}(c)
	}
	t0 := time.Now()
	deadline = t0.Add(d)
	for _, c := range clients {
		c.t0 = t0
	}
	close(start)
	wg.Wait()
	p := phase{wall: time.Since(t0)}
	for _, c := range clients {
		p.ops += c.ops
		p.failed += c.failed
		p.callNs += c.callNs
		p.userBytes += c.userBytes
		p.poolDry += c.poolDry
		p.own.allocs += c.own.allocs
		p.own.bytes += c.own.bytes
		if p.firstErr == nil {
			p.firstErr = c.firstErr
		}
		if traced {
			p.spans = append(p.spans, c.spans)
		}
	}
	windows := 1
	if opsPerClient <= 0 {
		windows = numWindows
	}
	secs := (d / numWindows).Seconds()
	for w := 0; w < windows; w++ {
		var n int64
		for _, c := range clients {
			n += c.winOps[w]
		}
		if w == windows-1 {
			// The last (or only) window also holds the operations that
			// were in flight at the deadline.
			secs = p.wall.Seconds() - float64(w)*secs
		}
		p.rates = append(p.rates, ratio(float64(n), secs))
	}
	for cl := range p.lat {
		for _, c := range clients {
			p.lat[cl] = c.lat[cl].appendTo(p.lat[cl])
		}
		slices.Sort(p.lat[cl])
	}
	return p
}
