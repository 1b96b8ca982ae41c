package obs

import (
	"fmt"
	"sync"
)

// EventType enumerates the structural events the tracer records.
type EventType uint8

const (
	// EvSplit is a bucket split that appended a new bucket.
	EvSplit EventType = iota
	// EvRedistribution is an overflow absorbed by shifting keys into an
	// existing neighbour bucket.
	EvRedistribution
	// EvMerge is a bucket merge under deletions (sibling, guaranteed or
	// rotation policy).
	EvMerge
	// EvBorrow is an underflow resolved by borrowing keys from a
	// neighbour (THCL's guaranteed-load rule).
	EvBorrow
	// EvNilAlloc is the basic method's allocation of a bucket for a nil
	// leaf on first insertion into its key range.
	EvNilAlloc
	// EvPageSplit is a trie page split (MLTH).
	EvPageSplit
	// EvPageRead is a non-root trie page access (MLTH).
	EvPageRead
	// EvCacheHit is a buffer-pool read served from memory.
	EvCacheHit
	// EvCacheMiss is a buffer-pool read forwarded to the store.
	EvCacheMiss
	// EvCacheEvict is a buffer-pool frame eviction (CLOCK second chance
	// exhausted).
	EvCacheEvict
	// EvFault is an injected storage fault tripping (FaultStore).
	EvFault
	// EvRecovery is a trie reconstruction from bucket bounds (TOR83).
	EvRecovery
	// EvCorrupt is slot corruption: injected (FaultStore corrupt modes, a
	// CrashStore power cut tearing an in-flight write) or detected (a
	// checksum failure surfacing as a CorruptError during salvage).
	EvCorrupt
	// EvQuarantine is an unreadable bucket moved to the quarantine file
	// and its slot cleared (File.Scrub, thcheck -repair).
	EvQuarantine
	// EvWALAppend is a record appended to the write-ahead log
	// (high-frequency: counted always, ring-recorded only with TraceIO).
	EvWALAppend
	// EvWALFsync is a group-commit fsync of the log; Addr carries the
	// number of records the fsync made durable (the commit group size).
	EvWALFsync
	// EvCheckpoint is a checkpoint folding the log into bucket pages and
	// truncating it; Addr carries the records folded.
	EvCheckpoint
	// EvWALReplay is a log replay on open; Addr carries the records
	// replayed, Detail reports a torn tail when one was truncated.
	EvWALReplay

	numEventTypes
)

var eventNames = [numEventTypes]string{
	EvSplit:          "split",
	EvRedistribution: "redistribution",
	EvMerge:          "merge",
	EvBorrow:         "borrow",
	EvNilAlloc:       "nil_alloc",
	EvPageSplit:      "page_split",
	EvPageRead:       "page_read",
	EvCacheHit:       "cache_hit",
	EvCacheMiss:      "cache_miss",
	EvCacheEvict:     "cache_evict",
	EvFault:          "fault",
	EvRecovery:       "recovery",
	EvCorrupt:        "corrupt",
	EvQuarantine:     "quarantine",
	EvWALAppend:      "wal_append",
	EvWALFsync:       "wal_fsync",
	EvCheckpoint:     "checkpoint",
	EvWALReplay:      "wal_replay",
}

func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return fmt.Sprintf("EventType(%d)", int(t))
}

// MarshalText renders the type name (so events serialize readably).
func (t EventType) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText parses a type name (the inverse of MarshalText).
func (t *EventType) UnmarshalText(b []byte) error {
	for i, name := range eventNames {
		if name == string(b) {
			*t = EventType(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event type %q", b)
}

// EventTypes enumerates every event type in declaration order.
func EventTypes() []EventType {
	out := make([]EventType, numEventTypes)
	for i := range out {
		out[i] = EventType(i)
	}
	return out
}

// Event is one structural event plus the state of the structure that
// triggered it. Addr/Addr2 identify the buckets (or pages) involved;
// Keys/Buckets/TrieCells snapshot the cheap O(1) structure figures at
// emission time, so a trace replays the file's trajectory.
type Event struct {
	Seq       uint64    `json:"seq"`
	Type      EventType `json:"type"`
	Addr      int32     `json:"addr"`
	Addr2     int32     `json:"addr2,omitempty"`
	Op        Op        `json:"op,omitempty"`
	Keys      int       `json:"keys,omitempty"`
	Buckets   int       `json:"buckets,omitempty"`
	TrieCells int       `json:"cells,omitempty"`
	Detail    string    `json:"detail,omitempty"`
}

func (e Event) String() string {
	s := fmt.Sprintf("#%d %s addr=%d", e.Seq, e.Type, e.Addr)
	if e.Addr2 != 0 {
		s += fmt.Sprintf(" addr2=%d", e.Addr2)
	}
	if e.Type == EvFault {
		s += fmt.Sprintf(" op=%s", e.Op)
	}
	if e.Keys != 0 || e.Buckets != 0 {
		s += fmt.Sprintf(" keys=%d buckets=%d cells=%d", e.Keys, e.Buckets, e.TrieCells)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Tracer is a bounded ring buffer of events. Appends assign a global
// sequence number; once the ring wraps, the oldest events are dropped but
// the sequence keeps counting, so consumers can detect gaps.
type Tracer struct {
	mu  sync.Mutex
	buf []Event
	// next is the sequence number of the next event (== total appended).
	next uint64
}

// NewTracer returns a tracer keeping the most recent n events (n >= 1).
func NewTracer(n int) *Tracer {
	if n < 1 {
		n = 1
	}
	return &Tracer{buf: make([]Event, n)}
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int { return len(t.buf) }

// Append records e, assigning its sequence number, and returns it.
func (t *Tracer) Append(e Event) uint64 {
	t.mu.Lock()
	seq := t.next
	e.Seq = seq
	t.buf[seq%uint64(len(t.buf))] = e
	t.next = seq + 1
	t.mu.Unlock()
	return seq
}

// Total returns the number of events ever appended.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Dropped returns how many events the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next > uint64(len(t.buf)) {
		return t.next - uint64(len(t.buf))
	}
	return 0
}

// Snapshot returns the retained events, oldest first.
func (t *Tracer) Snapshot() []Event { return t.Since(0) }

// Since returns the retained events with Seq >= seq, oldest first. Passing
// the previous call's next-sequence (last Seq + 1) tails the stream.
func (t *Tracer) Since(seq uint64) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	lo := uint64(0)
	if t.next > uint64(len(t.buf)) {
		lo = t.next - uint64(len(t.buf))
	}
	if seq > lo {
		lo = seq
	}
	if lo >= t.next {
		return nil
	}
	out := make([]Event, 0, t.next-lo)
	for s := lo; s < t.next; s++ {
		out = append(out, t.buf[s%uint64(len(t.buf))])
	}
	return out
}
