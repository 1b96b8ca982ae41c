// Package concurrent holds the primitives of the concurrency scheme the
// paper's conclusion sketches (/VID87/): because the trie only ever
// appends cells and a bucket split publishes itself by flipping a single
// leaf pointer, readers can traverse the trie without any lock — a writer
// needs "only the leaf A and the variable N". The store-backed engine
// core.ConcurrentFile is built from them:
//
//   - Arena is the lock-free, append-only mirror of the trie's cell table
//     that readers search, and Mirror keeps it and the latch table in step
//     with the authoritative trie.
//   - Latches is the per-bucket RW latch table; LockPair is its one
//     two-latch acquisition.
//   - Stripes is the subtree-keyed structural lock table; SortKeys gives
//     the order several stripes are locked in.
//   - FanOut is the bounded work distributor of the batch paths.
package concurrent

import (
	"fmt"
	"sync/atomic"

	"triehash/internal/keys"
	"triehash/internal/trie"
)

// Arena is the lock-free mirror of a trie's cell table that the
// store-backed concurrent engine searches without taking any lock. It is
// the /VID87/ data structure made concrete: an append-only table of cells
// whose tagged pointers are single atomic words, chunked so growth never
// moves a cell a reader may be looking at. The authoritative trie (owned
// by the structural writer) replays every mutation into the arena through
// the trie.Tracer hooks, preserving program order — in particular, a
// chain of fresh cells is fully wired before the one pointer flip that
// publishes it, so a reader either misses the chain entirely or sees it
// complete.
//
// Pointer words hold trie.Ptr values verbatim (leaf = bucket address,
// edge = -cell-1, nil = MinInt32), so no translation layer sits between
// the mirror and the authoritative trie.
const (
	arenaChunkShift = 10
	arenaChunkSize  = 1 << arenaChunkShift
	arenaMaxChunks  = 1 << 16 // capacity 2^26 cells; the table only grows
)

// arenaCell mirrors one trie cell. dv and dn are written once, before the
// cell becomes reachable; lp and rp are the atomically published tagged
// pointers.
type arenaCell struct {
	dv     byte
	dn     int32
	lp, rp atomic.Int32
}

// Arena is safe for any number of concurrent readers (Search) alongside
// one mutator (the tracer replay, serialized by the engine's structural
// lock).
type Arena struct {
	alpha  keys.Alphabet
	ncells atomic.Int32
	root   atomic.Int32
	chunks [arenaMaxChunks]atomic.Pointer[[arenaChunkSize]arenaCell]
}

// NewArena builds an arena mirroring t's current cells and root. The
// caller attaches the arena (usually via Mirror) as t's tracer afterwards
// so later mutations replay into it.
func NewArena(t *trie.Trie) *Arena {
	a := &Arena{alpha: t.Alphabet()}
	a.root.Store(int32(trie.Nil))
	n := int32(t.TableCells())
	for ci := int32(0); ci < n; ci++ {
		c := t.CellAt(ci)
		a.TraceAppendCell(ci, c.DV, c.DN)
		a.storePtr(trie.Pos{Cell: ci, Side: trie.SideLeft}, c.LP)
		a.storePtr(trie.Pos{Cell: ci, Side: trie.SideRight}, c.RP)
	}
	a.root.Store(int32(t.Root()))
	return a
}

func (a *Arena) cell(ci int32) *arenaCell {
	return &a.chunks[ci>>arenaChunkShift].Load()[ci&(arenaChunkSize-1)]
}

// TraceAppendCell implements trie.Tracer: it appends cell ci (which must
// be the next index — the mirror and the trie grow in lock step) with
// both pointers nil. The node fields are plain writes: the cell is
// unreachable until an edge to it is atomically published, and that
// publication orders the writes for every reader that follows the edge.
func (a *Arena) TraceAppendCell(ci int32, dv byte, dn int32) {
	if got := a.ncells.Load(); ci != got {
		panic(fmt.Sprintf("concurrent: arena out of sync: appending cell %d, table has %d", ci, got))
	}
	ck := ci >> arenaChunkShift
	if ck >= arenaMaxChunks {
		panic("concurrent: arena cell table full")
	}
	ch := a.chunks[ck].Load()
	if ch == nil {
		ch = new([arenaChunkSize]arenaCell)
		a.chunks[ck].Store(ch)
	}
	c := &ch[ci&(arenaChunkSize-1)]
	c.dv, c.dn = dv, dn
	c.lp.Store(int32(trie.Nil))
	c.rp.Store(int32(trie.Nil))
	a.ncells.Store(ci + 1)
}

// TraceSetPtr implements trie.Tracer: one atomic pointer store. When the
// slot is the last link making a fresh subtree reachable, this store is
// the publication flip.
func (a *Arena) TraceSetPtr(pos trie.Pos, v trie.Ptr) { a.storePtr(pos, v) }

func (a *Arena) storePtr(pos trie.Pos, v trie.Ptr) {
	switch pos.Side {
	case trie.SideRoot:
		a.root.Store(int32(v))
	case trie.SideLeft:
		a.cell(pos.Cell).lp.Store(int32(v))
	default:
		a.cell(pos.Cell).rp.Store(int32(v))
	}
}

// Search runs Algorithm A1 over the arena without locks or allocation and
// returns the leaf pointer reached — the concurrent twin of
// trie.SearchAddr. The result is a hint: the caller must latch the bucket
// and re-run Search to confirm the address before trusting it.
func (a *Arena) Search(key string) trie.Ptr {
	n := trie.Ptr(a.root.Load())
	j := 0
	for n.IsEdge() {
		c := a.cell(n.Cell())
		i := int(c.dn)
		if j == i {
			cj := a.alpha.Digit(key, j)
			if cj <= c.dv {
				if cj == c.dv {
					j++
				}
				n = trie.Ptr(c.lp.Load())
				continue
			}
			n = trie.Ptr(c.rp.Load())
		} else if j < i {
			n = trie.Ptr(c.lp.Load())
		} else {
			n = trie.Ptr(c.rp.Load())
		}
	}
	return n
}

// SearchPath is Search also materializing the logical path of the leaf it
// reaches — the digits that name the leaf's enclosing subtree, which the
// structural paths hash into a stripe key. Like Search the result is a
// hint: the trie may flip mid-walk, so the caller re-verifies the address
// under the locks it takes. A torn walk can at worst yield the path of a
// neighbouring subtree (a pessimal stripe choice, never an unsafe one), so
// unlike the authoritative trie's SearchFrom this walk does not panic on a
// path shorter than a cell's digit number — it pads and carries on.
func (a *Arena) SearchPath(key string) (trie.Ptr, []byte) {
	var path []byte
	n := trie.Ptr(a.root.Load())
	j := 0
	for n.IsEdge() {
		c := a.cell(n.Cell())
		i := int(c.dn)
		goLeft := false
		if j == i {
			cj := a.alpha.Digit(key, j)
			if cj <= c.dv {
				goLeft = true
				if cj == c.dv {
					j++
				}
			}
		} else if j < i {
			goLeft = true
		}
		if goLeft {
			for len(path) < i {
				path = append(path, 0)
			}
			path = append(path[:i], c.dv)
			n = trie.Ptr(c.lp.Load())
		} else {
			n = trie.Ptr(c.rp.Load())
		}
	}
	return n, path
}

// Mirror couples an Arena with the engine's latch table as one
// trie.Tracer: before a leaf address becomes reachable through the arena,
// the latch table is grown to cover it, so a reader that wins the race to
// the fresh leaf always finds its latch allocated.
type Mirror struct {
	Arena   *Arena
	Latches *Latches
}

// TraceAppendCell implements trie.Tracer.
func (m *Mirror) TraceAppendCell(ci int32, dv byte, dn int32) {
	m.Arena.TraceAppendCell(ci, dv, dn)
}

// TraceSetPtr implements trie.Tracer.
func (m *Mirror) TraceSetPtr(pos trie.Pos, v trie.Ptr) {
	if v.IsLeaf() && !v.IsNil() {
		m.Latches.Grow(v.Addr() + 1)
	}
	m.Arena.TraceSetPtr(pos, v)
}
