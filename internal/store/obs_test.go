package store

import (
	"errors"
	"testing"

	"triehash/internal/bucket"
	"triehash/internal/obs"
)

// TestFaultTripObservable is the regression test for fault observability:
// an armed fault must surface as an EvFault event carrying the failing
// address and operation before the injected error propagates to the
// caller.
func TestFaultTripObservable(t *testing.T) {
	fs := NewFault(NewMem())
	hook := &obs.Hook{}
	fs.SetObsHook(hook)
	o := obs.New(obs.Config{TraceDepth: 16})
	hook.Set(o)

	addr, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b := bucket.New(4)
	b.Put("k", []byte("v"))
	if err := fs.Write(addr, b); err != nil {
		t.Fatal(err)
	}

	fs.Arm(0, true, false)
	_, err = fs.Read(addr)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("armed read returned %v, want ErrInjected", err)
	}
	evs := o.Events().Snapshot()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want exactly the trip: %v", len(evs), evs)
	}
	ev := evs[0]
	if ev.Type != obs.EvFault {
		t.Fatalf("event type = %v, want EvFault", ev.Type)
	}
	if ev.Op != obs.OpRead {
		t.Fatalf("event op = %v, want OpRead", ev.Op)
	}
	if ev.Addr != addr {
		t.Fatalf("event addr = %d, want the failing address %d", ev.Addr, addr)
	}
	if o.EventCount(obs.EvFault) != 1 {
		t.Fatalf("EvFault count = %d, want 1", o.EventCount(obs.EvFault))
	}

	fs.Disarm()
	if _, err := fs.Read(addr); err != nil {
		t.Fatalf("disarmed read failed: %v", err)
	}

	// Write-side trips report their operation too.
	fs.Arm(0, false, true)
	if err := fs.Write(addr, b); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed write returned %v, want ErrInjected", err)
	}
	if _, err := fs.Alloc(); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed alloc returned %v, want ErrInjected", err)
	}
	evs = o.Events().Snapshot()
	if got := len(evs); got != 3 {
		t.Fatalf("got %d events, want 3: %v", got, evs)
	}
	if evs[1].Op != obs.OpWrite || evs[1].Addr != addr {
		t.Fatalf("write trip = %+v, want OpWrite on %d", evs[1], addr)
	}
	if evs[2].Op != obs.OpAlloc {
		t.Fatalf("alloc trip = %+v, want OpAlloc", evs[2])
	}
}

// TestCacheHitMissObservable verifies the buffer pool counts and (under
// TraceIO) traces its lookups.
func TestCacheHitMissObservable(t *testing.T) {
	c := NewSharded(NewMem(), 2, 1)
	hook := &obs.Hook{}
	c.SetObsHook(hook)
	o := obs.New(obs.Config{TraceDepth: 16, TraceIO: true})
	hook.Set(o)

	addr, err := c.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b := bucket.New(4)
	b.Put("k", []byte("v"))
	if err := c.Write(addr, b); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(addr); err != nil { // hit: the write populated the frame
		t.Fatal(err)
	}
	if h, m := c.Hits(), c.Misses(); h != 1 || m != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0", h, m)
	}
	if got := o.EventCount(obs.EvCacheHit); got != 1 {
		t.Fatalf("EvCacheHit count = %d, want 1", got)
	}
	// The ring received the hit because TraceIO is on.
	evs := o.Events().Snapshot()
	if len(evs) != 1 || evs[0].Type != obs.EvCacheHit || evs[0].Addr != addr {
		t.Fatalf("traced events = %v, want one EvCacheHit on %d", evs, addr)
	}

	// ResetCounters zeroes the pool's counters along with the chain's.
	c.ResetCounters()
	if h, m := c.Hits(), c.Misses(); h != 0 || m != 0 {
		t.Fatalf("hits/misses after reset = %d/%d, want 0/0", h, m)
	}
}

// TestUnwrapChain checks the wrapper-chain helpers used by the public
// layer to reach specific stores through Instrumented/ShardedCache/Fault.
func TestUnwrapChain(t *testing.T) {
	hook := &obs.Hook{}
	mem := NewMem()
	fault := NewFault(mem)
	cached := NewSharded(fault, 4, 0)
	inst := NewInstrumented(cached, hook)

	if got := AsSharded(inst); got != cached {
		t.Fatalf("AsSharded found %v, want the cached layer", got)
	}
	if got := AsFileStore(inst); got != nil {
		t.Fatalf("AsFileStore found %v, want nil (memory chain)", got)
	}
	if got := Unwrap(inst); got != cached {
		t.Fatalf("Unwrap(inst) = %v, want cached", got)
	}
}

// TestInstrumentedTimesOps verifies the instrumented wrapper records one
// latency sample per store operation when an observer is attached and
// stays transparent when not.
func TestInstrumentedTimesOps(t *testing.T) {
	hook := &obs.Hook{}
	s := NewInstrumented(NewMem(), hook)

	// Disabled: operations pass through, nothing recorded.
	addr, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Config{})
	hook.Set(o)

	b := bucket.New(4)
	b.Put("k", []byte("v"))
	if err := s.Write(addr, b); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(addr); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(addr); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op   obs.Op
		want uint64
	}{{obs.OpAlloc, 0}, {obs.OpWrite, 1}, {obs.OpRead, 1}, {obs.OpFree, 1}} {
		if got := o.Op(tc.op).Count(); got != tc.want {
			t.Errorf("%v samples = %d, want %d", tc.op, got, tc.want)
		}
	}
}
