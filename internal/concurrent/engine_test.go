package concurrent_test

// The /VID87/ properties these primitives exist for, checked on the engine
// that assembles them: core.ConcurrentFile searches the Arena without a
// lock, reads each bucket under its Latches entry and publishes every
// split through the Mirror.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"triehash/internal/core"
	"triehash/internal/store"
	"triehash/internal/trie"
	"triehash/internal/workload"
)

func newEngine(t *testing.T, b int) *core.ConcurrentFile {
	t.Helper()
	f, err := core.New(core.Config{Capacity: b, Mode: trie.ModeTHCL}, store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewConcurrent(f)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestReadersNeverMissDuringSplits is the core /VID87/ property: readers
// searching the arena without a lock never miss a key that was fully
// inserted before the reads began, while a writer splits constantly.
func TestReadersNeverMissDuringSplits(t *testing.T) {
	e := newEngine(t, 4) // tiny buckets: constant splitting
	const preloaded = 2000
	pre := make([]string, preloaded)
	for i := range pre {
		pre[i] = fmt.Sprintf("pre-%06d", i*7)
		if _, err := e.Put(pre[i], []byte(pre[i])); err != nil {
			t.Fatal(err)
		}
	}
	splitsBefore := e.Stats().Splits
	var wg sync.WaitGroup
	stopped := make(chan struct{})
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stopped:
					return
				default:
				}
				k := pre[rng.Intn(preloaded)]
				v, err := e.Get(k)
				if err != nil || string(v) != k {
					t.Errorf("reader missed %q during splits: %q, %v", k, v, err)
					return
				}
			}
		}(int64(r))
	}
	// The writer forces thousands of splits interleaved with the reads.
	// Its keys sort between the preloaded ones, so the splits move
	// preloaded keys to fresh buckets under the readers' feet.
	for i := 0; i < 20000; i++ {
		if _, err := e.Put(fmt.Sprintf("pre-%06d-new", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stopped)
	wg.Wait()
	if e.Stats().Splits == splitsBefore {
		t.Fatal("no splits happened while the readers ran; the test proved nothing")
	}
}

// TestGetZeroAlloc: a Get allocates nothing, hit or miss — the arena
// search is path-free and the bucket is read through the store's view.
func TestGetZeroAlloc(t *testing.T) {
	e := newEngine(t, 8)
	ks := workload.Uniform(3, 1000, 3, 10)
	for _, k := range ks {
		if _, err := e.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	var sink []byte
	allocs := testing.AllocsPerRun(200, func() {
		v, err := e.Get(ks[123])
		if err != nil {
			t.Fatal(err)
		}
		sink = v
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("Get allocates %v objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := e.Get("zzzzzzzzzzzz"); !errors.Is(err, core.ErrNotFound) {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("missing-key Get allocates %v objects/op, want 0", allocs)
	}
}
