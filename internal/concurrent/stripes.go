package concurrent

import "sync"

// Stripes is the subtree-keyed structural lock table: splits, merges and
// borrows lock the stripe of the nearest enclosing trie subtree instead of
// one global structural lock, so structural operations in disjoint
// subtrees proceed in parallel. A stripe is named by the first StripeDepth
// digits of the leaf's logical path (the subtree prefix); the prefix
// hashes into a small fixed table, which bounds memory no matter how deep
// the trie grows. Leaves whose path is shorter than StripeDepth sit too
// close to the root for a subtree to enclose them — they fall back to the
// root stripe, which also serializes the rare root split.
//
// Stripes order below the engine's world lock and above the bucket
// latches: a structural operation locks its stripe(s) first, then the
// bucket latches, and never the other way around (the lockorder analyzer
// enforces it). When one operation spans several subtrees — a merge with
// its in-order neighbours — the stripes are acquired as one deduplicated
// set in ascending index order, which keeps the acquisition graph acyclic
// exactly like the latch layer's LockPair.
type Stripes struct {
	mus [NumStripes + 1]sync.Mutex
}

const (
	// StripeDepth is how many leading path digits name a subtree. Three
	// digits distinguish up to |alphabet|^3 subtrees — far more than the
	// stripe table has slots, so the hash, not the depth, bounds sharing.
	StripeDepth = 3
	// NumStripes is the size of the hashed stripe table. 64 stripes keep
	// the table at a cache line's worth of mutexes while making the
	// birthday collision odds for ~8 concurrent writers negligible.
	NumStripes = 64
	// RootStripe is the index of the fallback stripe for leaves too close
	// to the root to have an enclosing StripeDepth-digit subtree.
	RootStripe = NumStripes
)

// NewStripes returns a zeroed stripe table (the zero value is also valid).
func NewStripes() *Stripes { return &Stripes{} }

// KeyOf maps a leaf's logical path to its stripe index. Paths shorter than
// StripeDepth fall back to RootStripe.
func (s *Stripes) KeyOf(path []byte) int {
	if len(path) < StripeDepth {
		return RootStripe
	}
	// FNV-1a over the subtree prefix: cheap, deterministic, and good
	// enough dispersion for a 64-slot table.
	h := uint32(2166136261)
	for _, d := range path[:StripeDepth] {
		h = (h ^ uint32(d)) * 16777619
	}
	return int(h % NumStripes)
}

// Lock locks stripe k. Callers locking more than one stripe lock them in
// SortKeys order.
func (s *Stripes) Lock(k int) { s.mus[k].Lock() }

// Unlock unlocks stripe k.
func (s *Stripes) Unlock(k int) { s.mus[k].Unlock() }

// SortKeys sorts ks ascending in place, removes duplicates, and returns
// the shortened slice — the acquisition order every multi-stripe caller
// must use.
func SortKeys(ks []int) []int {
	// Insertion sort: the sets are tiny (a merge touches at most three
	// subtrees) and this avoids pulling package sort into the hot path.
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	out := ks[:0]
	for i, k := range ks {
		if i == 0 || k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}
