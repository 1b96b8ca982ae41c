package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the interprocedural lock-flow engine shared by the
// lockgraph and publishsafety analyzers. It computes, for every function
// body in the call graph:
//
//   - the locks acquired, with the set held at each acquisition;
//   - the set held at every call site (and at every function-literal
//     definition, which is the held set a closure inherits from its
//     creator);
//   - the net set still held on exit (lockSubtrees, LockPair and the
//     public File.lock all return holding locks, paired with their
//     release);
//   - store-I/O events, with Alloc-freshness of the written address;
//   - exposure flags: does the function (transitively) mutate the
//     authoritative trie/arena, or write the store, without covering the
//     mutation itself?
//
// Summaries are stabilized bottom-up over the call graph's strongly
// connected components, then a top-down worklist propagates held-at-entry
// sets (a may-analysis, with one witness call edge per inherited lock)
// and a must-held intersection (what is held on EVERY path into the
// function, which publishsafety uses to accept callees that rely on
// their callers' locks).

// lockClass is a lock's tier in the engine hierarchy, or aux for
// unranked leaf locks (observability internals, growth locks, local
// coordination mutexes) that participate in cycle detection only.
type lockClass int

const (
	classAux lockClass = iota
	classFile
	classWorld
	classStripe
	classLatch
	classFlip
	classShard
)

// hierarchyOrder is the canonical outermost-first tier order the
// checked-in lockhierarchy.txt mirrors.
var hierarchyOrder = []lockClass{classFile, classWorld, classStripe, classLatch, classFlip, classShard}

func (c lockClass) ranked() bool { return c != classAux }

// rank is the tier's index in hierarchyOrder; lower acquires first.
func (c lockClass) rank() int {
	for i, t := range hierarchyOrder {
		if t == c {
			return i
		}
	}
	return -1
}

func (c lockClass) String() string {
	switch c {
	case classFile:
		return "file"
	case classWorld:
		return "world"
	case classStripe:
		return "stripe"
	case classLatch:
		return "latch"
	case classFlip:
		return "flip"
	case classShard:
		return "shard"
	}
	return "aux"
}

// heldInfo is one lock the flow believes is held at a program point.
type heldInfo struct {
	id    string // identity inside the current context ("lb.mu"; entry locks carry a caller prefix)
	disp  string // display spelling for messages ("lb.mu")
	inst  string // graph node: the tier name for ranked locks, a stable instance label for aux
	class lockClass
	excl  bool // Lock rather than RLock
	// localShape marks a shard lock reached through a local variable
	// (sh.mu) — the pool-shard shape whose critical sections must never
	// cover store I/O (rule 3). Receiver-rooted store locks are exempt:
	// the journaling wrapper serializes I/O under its own lock by design.
	localShape bool
	pos        token.Pos
	fn         *funcNode // function whose body performed the acquisition
}

type heldSet map[string]heldInfo

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// intersect keeps only the locks held in both sets (the safe merge after
// a branch that may have released).
func (h heldSet) intersect(o heldSet) {
	for k := range h {
		if _, ok := o[k]; !ok {
			delete(h, k)
		}
	}
}

func sortedHeld(h heldSet) []heldInfo {
	out := make([]heldInfo, 0, len(h))
	for _, v := range h {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// acqEvent is one lock acquisition with its local context.
type acqEvent struct {
	l        heldInfo
	held     []heldInfo // locks already held by this body at the acquisition
	mapDepth int        // > 0 when lexically inside a range over a map
	site     string     // enclosing declaration's bare name (LockPair, lockSubtrees)
	via      string     // "Lock", "RLock" or the Stripes method name
}

// callEvent is one call site (or function-literal definition, the
// pseudo-edge through which a closure inherits its creator's held set).
type callEvent struct {
	targets []*funcNode
	pos     token.Pos
	held    []heldInfo
	litDef  bool
}

// ioEvent is one store-surface call (Read/Write/Alloc/Free/...).
type ioEvent struct {
	recv   string
	method string
	pos    token.Pos
	held   []heldInfo
	// fresh marks a Write/Free whose address is data-flow-derived from a
	// st.Alloc() result in the same body: the twin bucket of a prepared
	// split, unreachable until the flip publishes it.
	fresh bool
}

// funcSummary is the per-function result of the flow.
type funcSummary struct {
	net           []heldInfo // held on exit
	returnsUnlock bool       // returns a func() paired with net

	acqs  []acqEvent
	calls []callEvent
	ios   []ioEvent

	// directMut marks a Trie/Arena/Mirror method that writes shared
	// state in its own body; mutPos is its first write.
	directMut bool
	mutPos    token.Pos
	// trieMutExposed: the function mutates the authoritative trie/arena
	// (directly or transitively) on some path not covered by a local
	// flip-exclusive or world-exclusive section. mutWitness names the
	// underlying write for diagnostics.
	trieMutExposed bool
	mutWitness     string
	// storeWriteExposed: likewise for non-fresh store writes not covered
	// by a local latch, flip-exclusive or world-exclusive section.
	storeWriteExposed bool

	// entry is the may-held-at-entry set, one witness edge per lock.
	entry    map[string]heldInfo
	entrySrc map[string]entrySource
	// entryMust is the tier bitmask held on every known path into the
	// function (empty for roots).
	entryMust uint16
}

// entrySource is the witness call edge that carried an entry lock in.
type entrySource struct {
	caller  *funcNode
	callPos token.Pos
}

// sig is the fixed-point change signature.
func (s *funcSummary) sig() string {
	var b strings.Builder
	for _, h := range s.net {
		fmt.Fprintf(&b, "%s/%d/%t;", h.id, h.class, h.excl)
	}
	fmt.Fprintf(&b, "|%t|%t|%t", s.returnsUnlock, s.trieMutExposed, s.storeWriteExposed)
	return b.String()
}

// entryMust bitmask bits.
const (
	mFile uint16 = 1 << iota
	mWorldShared
	mWorldExcl
	mStripe
	mLatch
	mFlipShared
	mFlipExcl
	mShard
)

func maskOf(h heldInfo) uint16 {
	switch h.class {
	case classFile:
		return mFile
	case classWorld:
		if h.excl {
			return mWorldExcl
		}
		return mWorldShared
	case classStripe:
		return mStripe
	case classLatch:
		return mLatch
	case classFlip:
		if h.excl {
			return mFlipExcl
		}
		return mFlipShared
	case classShard:
		return mShard
	}
	return 0
}

func maskOfHeld(held []heldInfo) uint16 {
	var m uint16
	for _, h := range held {
		m |= maskOf(h)
	}
	return m
}

// storeIOMethods are the Store-surface calls the flow records.
var storeIOMethods = map[string]bool{
	"Read":     true,
	"ReadView": true,
	"Lookup":   true,
	"Write":    true,
	"Alloc":    true,
	"Free":     true,
	"Sync":     true,
}

// trieFamily are the named types whose methods own the authoritative
// trie state: writes inside them are the mutations publishsafety guards.
var trieFamily = map[string]bool{
	"Trie":   true,
	"Arena":  true,
	"Mirror": true,
}

// lockEngine ties the call graph and the summaries of one load together.
type lockEngine struct {
	pkgs  []*Package
	fset  *token.FileSet
	graph *callGraph
}

// engineCache memoizes the engine per load: lockgraph and publishsafety
// run over the same packages in one Run call.
var engineCache struct {
	key *Package
	n   int
	eng *lockEngine
}

func engineFor(pkgs []*Package) *lockEngine {
	if len(pkgs) == 0 {
		return nil
	}
	if engineCache.eng != nil && engineCache.key == pkgs[0] && engineCache.n == len(pkgs) {
		return engineCache.eng
	}
	eng := newLockEngine(pkgs)
	engineCache.key, engineCache.n, engineCache.eng = pkgs[0], len(pkgs), eng
	return eng
}

func newLockEngine(pkgs []*Package) *lockEngine {
	e := &lockEngine{pkgs: pkgs, fset: pkgs[0].Fset, graph: buildCallGraph(pkgs)}
	for _, n := range e.graph.nodes {
		n.sum = &funcSummary{}
		if isPrimitiveNode(n) {
			continue
		}
		if recv := n.receiverNamed(); recv != nil && trieFamily[recv.Obj().Name()] {
			n.sum.directMut, n.sum.mutPos = detectDirectMut(n)
		}
	}
	e.stabilize()
	e.propagate()
	return e
}

// isPrimitiveNode marks bodies modeled at the call level instead of
// scanned: the Stripes table (its Lock/Unlock/Acquire are the stripe
// acquisition primitives — scanning their element mutexes would double
// count every stripe as an aux lock).
func isPrimitiveNode(n *funcNode) bool {
	for p := n; p != nil; p = p.parent {
		if recv := p.receiverNamed(); recv != nil && recv.Obj().Name() == "Stripes" {
			return true
		}
	}
	return false
}

// detectDirectMut reports whether a trie-family method writes shared
// state: an assignment (or ++/--) whose target roots outside the locals,
// or an atomic Store/Swap/CompareAndSwap on such a root.
func detectDirectMut(n *funcNode) (bool, token.Pos) {
	info := n.pkg.Info
	recvObj := declReceiver(n)
	sharedRoot := func(e ast.Expr) bool {
		id := rootIdent(e)
		if id == nil {
			return false
		}
		obj, ok := info.ObjectOf(id).(*types.Var)
		if !ok {
			return false
		}
		if obj == recvObj || obj.IsField() {
			return true
		}
		// Pointer-typed parameters and locals alias shared state too
		// conservatively often; only the receiver and package state
		// count as "the authoritative structure" here.
		return obj.Parent() == n.pkg.Types.Scope()
	}
	var pos token.Pos
	found := false
	ast.Inspect(n.body(), func(x ast.Node) bool {
		if found {
			return false
		}
		switch st := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					if sharedRoot(lhs) {
						found, pos = true, st.Pos()
						return false
					}
				}
			}
		case *ast.IncDecStmt:
			switch st.X.(type) {
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				if sharedRoot(st.X) {
					found, pos = true, st.Pos()
					return false
				}
			}
		case *ast.CallExpr:
			if _, recv, name, ok := methodCall(info, st); ok {
				switch name {
				case "Store", "Swap", "CompareAndSwap":
					if nm := namedOf(info.TypeOf(recv)); nm != nil && nm.Obj().Pkg() != nil &&
						nm.Obj().Pkg().Path() == "sync/atomic" && sharedRoot(recv) {
						found, pos = true, st.Pos()
						return false
					}
				}
			}
		}
		return true
	})
	return found, pos
}

// declReceiver is the receiver object of the node's nearest declaration.
func declReceiver(n *funcNode) types.Object {
	for p := n; p != nil; p = p.parent {
		if p.decl != nil {
			return funcReceiver(p.pkg.Info, p.decl)
		}
	}
	return nil
}

// declBareName is the nearest declaration's bare name — the site key the
// by-name sanctions (LockPair, Acquire, lockSubtrees) use.
func declBareName(n *funcNode) string {
	for p := n; p != nil; p = p.parent {
		if p.decl != nil {
			return p.decl.Name.Name
		}
	}
	return ""
}

// stabilize runs the bottom-up summary pass: SCCs in callee-first order,
// iterating inside each component until the summaries reach a fixed
// point.
func (e *lockEngine) stabilize() {
	edges := make(map[*funcNode][]*funcNode)
	for _, n := range e.graph.nodes {
		if isPrimitiveNode(n) {
			continue
		}
		seen := make(map[*funcNode]bool)
		ast.Inspect(n.body(), func(x ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok && x != n.lit {
				if t := e.graph.byLit[lit]; t != nil && !seen[t] {
					seen[t] = true
					edges[n] = append(edges[n], t)
				}
				return false
			}
			if call, ok := x.(*ast.CallExpr); ok {
				for _, t := range e.graph.resolve(n.pkg, call) {
					if !seen[t] && !isPrimitiveNode(t) {
						seen[t] = true
						edges[n] = append(edges[n], t)
					}
				}
			}
			return true
		})
	}
	for _, scc := range e.graph.sccOrder(edges) {
		for iter := 0; iter < 10; iter++ {
			changed := false
			for _, n := range scc {
				if isPrimitiveNode(n) {
					continue
				}
				before := n.sum.sig()
				e.scanNode(n)
				if n.sum.sig() != before {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// scanNode recomputes one function's summary from its body and the
// current summaries of its callees.
func (e *lockEngine) scanNode(n *funcNode) {
	n.sum.acqs, n.sum.calls, n.sum.ios = nil, nil, nil
	s := &flowScan{
		eng:       e,
		node:      n,
		recv:      declReceiver(n),
		site:      declBareName(n),
		unlockers: make(map[types.Object][]string),
		fresh:     make(map[types.Object]bool),
		callAdded: make(map[*ast.CallExpr][]string),
	}
	held := make(heldSet)
	s.scanBlock(n.body(), held)
	// Deferred releases run at function exit: the lock was held for every
	// event of the body (which the events have already snapshotted), but
	// it is not part of the net-held-on-exit summary callers inherit.
	for _, id := range s.deferred {
		delete(held, id)
	}
	n.sum.net = sortedHeld(held)
	n.sum.returnsUnlock = returnsUnlockFunc(n)
	n.sum.trieMutExposed = n.sum.directMut
	if n.sum.directMut {
		n.sum.mutWitness = fmt.Sprintf("%s at %s", nodeLabel(n), e.shortPos(n.sum.mutPos))
	}
	for _, ev := range n.sum.calls {
		if coversTrieMut(ev.held) {
			continue
		}
		for _, t := range ev.targets {
			if t.sum != nil && t.sum.trieMutExposed {
				if !n.sum.trieMutExposed {
					n.sum.trieMutExposed = true
					n.sum.mutWitness = t.sum.mutWitness
				}
			}
		}
	}
	n.sum.storeWriteExposed = false
	for _, io := range n.sum.ios {
		if (io.method == "Write" || io.method == "Free") && !io.fresh && !coversStoreWrite(io.held) {
			n.sum.storeWriteExposed = true
		}
	}
	for _, ev := range n.sum.calls {
		if coversStoreWrite(ev.held) {
			continue
		}
		for _, t := range ev.targets {
			if t.sum != nil && t.sum.storeWriteExposed {
				n.sum.storeWriteExposed = true
			}
		}
	}
}

// coversTrieMut: a flip-exclusive section is the publication protocol; a
// world-exclusive section has quiesced every other goroutine (SaveMeta,
// Scrub, CheckInvariants).
func coversTrieMut(held []heldInfo) bool {
	for _, h := range held {
		if (h.class == classFlip || h.class == classWorld) && h.excl {
			return true
		}
	}
	return false
}

// coversStoreWrite: a reachable bucket is written under its latch, under
// the flip (the split's publication write) or world-exclusive.
func coversStoreWrite(held []heldInfo) bool {
	for _, h := range held {
		if h.class == classLatch {
			return true
		}
		if (h.class == classFlip || h.class == classWorld) && h.excl {
			return true
		}
	}
	return false
}

// returnsUnlockFunc reports whether the function's results include a
// plain func() — the unlock-closure convention of lockSubtrees/LockPair,
// releasing the net set when called.
func returnsUnlockFunc(n *funcNode) bool {
	var sig *types.Signature
	if n.obj != nil {
		sig, _ = n.obj.Type().(*types.Signature)
	} else if t := n.pkg.Info.TypeOf(n.lit); t != nil {
		sig, _ = t.(*types.Signature)
	}
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if rs, ok := sig.Results().At(i).Type().Underlying().(*types.Signature); ok {
			if rs.Params().Len() == 0 && rs.Results().Len() == 0 {
				return true
			}
		}
	}
	return false
}

// flowScan walks one function body, tracking held locks statement by
// statement (the branch-aware walk inherited from the old intraprocedural
// analyzer) and recording events into the node's summary.
type flowScan struct {
	eng       *lockEngine
	node      *funcNode
	recv      types.Object
	site      string
	mapDepth  int
	unlockers map[types.Object][]string
	fresh     map[types.Object]bool
	callAdded map[*ast.CallExpr][]string
	// deferred collects lock ids released by defer statements: held to
	// the end of the body, subtracted from the exit summary.
	deferred []string
}

func (s *flowScan) info() *types.Info            { return s.node.pkg.Info }
func (s *flowScan) typeOf(x ast.Expr) types.Type { return s.node.pkg.Info.TypeOf(x) }

func (s *flowScan) scanBlock(b *ast.BlockStmt, held heldSet) {
	for _, st := range b.List {
		s.scanStmt(st, held)
	}
}

func (s *flowScan) scanStmt(st ast.Stmt, held heldSet) {
	switch x := st.(type) {
	case *ast.BlockStmt:
		s.scanBlock(x, held)
	case *ast.IfStmt:
		if x.Init != nil {
			s.scanStmt(x.Init, held)
		}
		s.scanExpr(x.Cond, held)
		then := held.clone()
		s.scanBlock(x.Body, then)
		if x.Else != nil {
			alt := held.clone()
			s.scanStmt(x.Else, alt)
			if !terminates(x.Else) {
				held.intersect(alt)
			}
		}
		if !terminates(x.Body) {
			held.intersect(then)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			s.scanStmt(x.Init, held)
		}
		if x.Cond != nil {
			s.scanExpr(x.Cond, held)
		}
		body := held.clone()
		s.scanBlock(x.Body, body)
		if x.Post != nil {
			s.scanStmt(x.Post, body)
		}
		s.mergeLoop(held, body)
	case *ast.RangeStmt:
		s.scanExpr(x.X, held)
		overMap := false
		if t := s.typeOf(x.X); t != nil {
			_, overMap = t.Underlying().(*types.Map)
		}
		if overMap {
			s.mapDepth++
		}
		body := held.clone()
		s.scanBlock(x.Body, body)
		if overMap {
			s.mapDepth--
		}
		s.mergeLoop(held, body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Each case runs with a copy of the current held set; effects do
		// not propagate past the switch (cases are assumed lock-balanced).
		body := held.clone()
		ast.Inspect(st, func(n ast.Node) bool { return s.visitLeaf(n, body) })
	case *ast.AssignStmt:
		for _, rhs := range x.Rhs {
			s.scanExpr(rhs, held)
		}
		if len(x.Rhs) == 1 {
			if call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr); ok {
				s.bindCallResults(x.Lhs, call)
			}
		}
	case *ast.DeferStmt:
		// `defer lockSubtrees(...)()`: the inner call runs now (and its net
		// acquisitions are held), the returned unlock is deferred. A
		// deferred Unlock (or unlock closure) keeps the lock held to the
		// end of the body but releases it at exit — the ids go to
		// s.deferred so callers don't inherit them as net.
		if inner, ok := ast.Unparen(x.Call.Fun).(*ast.CallExpr); ok {
			s.handleCall(inner, held)
			s.deferred = append(s.deferred, s.callAdded[inner]...)
		} else if _, recvE, name, ok := methodCall(s.info(), x.Call); ok &&
			(name == "Unlock" || name == "RUnlock") &&
			(isSyncLocker(s.typeOf(recvE)) || isStripesType(s.typeOf(recvE))) {
			s.deferred = append(s.deferred, exprString(recvE))
		} else if id, ok := ast.Unparen(x.Call.Fun).(*ast.Ident); ok {
			if obj := s.info().Uses[id]; obj != nil {
				s.deferred = append(s.deferred, s.unlockers[obj]...)
			}
		}
		for _, arg := range x.Call.Args {
			s.scanLits(arg, held)
		}
	case *ast.GoStmt:
		s.handleCall(x.Call, held)
		ast.Inspect(x.Call, func(n ast.Node) bool { return s.visitLeaf(n, held) })
	case *ast.LabeledStmt:
		s.scanStmt(x.Stmt, held)
	default:
		ast.Inspect(st, func(n ast.Node) bool { return s.visitLeaf(n, held) })
	}
}

// mergeLoop folds a loop body's lock acquisitions back into the outer
// held set: a loop that locks without unlocking (lockSubtrees ranging
// over its ascending stripe set) exits holding the locks, while a
// per-iteration lock/unlock pair is balanced by the body's end and adds
// nothing. Releases inside the body stay conservative (the outer set
// keeps the lock): the loop may run zero iterations.
func (s *flowScan) mergeLoop(held, body heldSet) {
	for id, h := range body {
		if _, ok := held[id]; !ok {
			held[id] = h
		}
	}
}

func (s *flowScan) scanExpr(e ast.Expr, held heldSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool { return s.visitLeaf(n, held) })
}

// scanLits records literal definitions under e without other effects.
func (s *flowScan) scanLits(e ast.Expr, held heldSet) {
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			s.litDef(lit, held)
			return false
		}
		return true
	})
}

// visitLeaf handles one node of a straight-line statement: function
// literals become inheritance pseudo-edges, calls become lock, I/O and
// call events.
func (s *flowScan) visitLeaf(n ast.Node, held heldSet) bool {
	switch x := n.(type) {
	case *ast.FuncLit:
		s.litDef(x, held)
		return false
	case *ast.CallExpr:
		s.handleCall(x, held)
		return true // descend: nested calls in args have effects too
	}
	return true
}

// litDef records the held set a function literal inherits from its
// definition point. The closure is scanned as its own call-graph node;
// this pseudo call edge is what carries the creator's locks into it
// (both the synchronous RecordOp-dispatch closures and the fan-out
// workers, which really do run while the round's stripes are held).
func (s *flowScan) litDef(lit *ast.FuncLit, held heldSet) {
	t := s.eng.graph.byLit[lit]
	if t == nil || isPrimitiveNode(t) {
		return
	}
	s.node.sum.calls = append(s.node.sum.calls, callEvent{
		targets: []*funcNode{t},
		pos:     lit.Pos(),
		held:    sortedHeld(held),
		litDef:  true,
	})
}

// bindCallResults connects `x := call()` result values to the flow: an
// unlock closure releasing the call's net acquisitions, or an
// Alloc-fresh address.
func (s *flowScan) bindCallResults(lhs []ast.Expr, call *ast.CallExpr) {
	if len(lhs) == 0 {
		return
	}
	id, ok := ast.Unparen(lhs[0]).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := s.info().Defs[id]
	if obj == nil {
		obj = s.info().Uses[id]
	}
	if obj == nil {
		return
	}
	if added := s.callAdded[call]; len(added) > 0 {
		s.unlockers[obj] = added
		return
	}
	if _, recv, name, ok := methodCall(s.info(), call); ok && name == "Alloc" && isStoreType(s.typeOf(recv)) {
		s.fresh[obj] = true
	}
}

// handleCall applies one call expression's lock effects to held and
// records the events the interprocedural passes consume.
func (s *flowScan) handleCall(call *ast.CallExpr, held heldSet) {
	if _, done := s.callAdded[call]; done {
		return
	}
	s.callAdded[call] = nil

	// unlock() through a bound unlock closure releases its net set.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := s.info().Uses[id]; obj != nil {
			if ids, ok := s.unlockers[obj]; ok {
				for _, rid := range ids {
					delete(held, rid)
				}
				return
			}
		}
	}

	if _, recvE, name, ok := methodCall(s.info(), call); ok {
		if isStripesType(s.typeOf(recvE)) {
			key := exprString(recvE)
			switch name {
			case "Lock", "Acquire":
				l := heldInfo{
					id: key, disp: key, inst: classStripe.String(),
					class: classStripe, excl: true,
					pos: call.Pos(), fn: s.node,
				}
				s.record(l, held, name)
				held[l.id] = l
				s.callAdded[call] = []string{l.id}
			case "Unlock":
				delete(held, key)
			}
			return
		}
		if isSyncLocker(s.typeOf(recvE)) {
			switch name {
			case "Lock", "RLock":
				l := s.classify(recvE)
				l.excl = name == "Lock"
				l.pos = call.Pos()
				l.fn = s.node
				s.record(l, held, name)
				held[l.id] = l
				s.callAdded[call] = []string{l.id}
			case "Unlock", "RUnlock":
				delete(held, exprString(recvE))
			}
			return
		}
		if storeIOMethods[name] && isStoreType(s.typeOf(recvE)) {
			fresh := false
			if (name == "Write" || name == "Free") && len(call.Args) > 0 {
				if aid, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					if obj := s.info().Uses[aid]; obj != nil && s.fresh[obj] {
						fresh = true
					}
				}
			}
			s.node.sum.ios = append(s.node.sum.ios, ioEvent{
				recv: exprString(recvE), method: name,
				pos: call.Pos(), held: sortedHeld(held), fresh: fresh,
			})
			// fall through: the store implementation's own body (its
			// shard locks) is a module callee like any other.
		}
	}

	targets := s.eng.graph.resolve(s.node.pkg, call)
	kept := targets[:0]
	for _, t := range targets {
		if !isPrimitiveNode(t) {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		return
	}
	s.node.sum.calls = append(s.node.sum.calls, callEvent{
		targets: kept, pos: call.Pos(), held: sortedHeld(held),
	})
	// The callee's net acquisitions (lockSubtrees' stripes, LockPair's
	// latch pair, File.lock's file lock) are now held here.
	var added []string
	for _, t := range kept {
		if t.sum == nil {
			continue
		}
		for _, nh := range t.sum.net {
			// Cap the nesting of inherited net ids: a recursive SCC
			// (the store wrapper chain dispatches through the Store
			// interface back into itself) would otherwise re-nest its
			// members' nets on every fixed-point iteration.
			if strings.Count(nh.id, "call:") >= 2 {
				continue
			}
			l := nh
			l.id = "call:" + t.name + ":" + nh.id
			l.pos = call.Pos()
			l.fn = s.node
			if _, dup := held[l.id]; dup {
				continue
			}
			held[l.id] = l
			added = append(added, l.id)
		}
	}
	s.callAdded[call] = added
}

// record captures one acquisition event with its pre-acquisition context.
func (s *flowScan) record(l heldInfo, held heldSet, via string) {
	s.node.sum.acqs = append(s.node.sum.acqs, acqEvent{
		l:        l,
		held:     sortedHeld(held),
		mapDepth: s.mapDepth,
		site:     s.site,
		via:      via,
	})
}

// classify maps a raw mutex expression to its tier. The shapes mirror the
// real module and the goldens:
//
//   - a field named trieMu is the trie flip lock, whatever it hangs off;
//   - receiver/package-rooted `world` and `structural` are the world tier;
//   - the public File.mu (field mu on a type named File) is the file tier;
//   - other receiver-rooted locks of package store are the store tier
//     ("shard"): the pool shards, the journaling lock, MemStore's map
//     lock all order below the engine;
//   - a local pointer handle (mu := latches.Latch(a)) or a field of a
//     local bucket pointer (lb.mu) is a bucket latch;
//   - a field of a local shard (sh.mu, or any local rooted in a
//     store-package or *shard type) is a pool-shard lock;
//   - a locally declared value mutex (var retryMu sync.Mutex) is a
//     coordination lock, and everything else (observability internals,
//     the latch-table growth lock) is an aux leaf: unranked, checked for
//     cycles but not against the hierarchy.
func (s *flowScan) classify(recvE ast.Expr) heldInfo {
	key := exprString(recvE)
	l := heldInfo{id: key, disp: key, class: classAux, inst: "aux:" + key}

	lastField := ""
	if sel, ok := ast.Unparen(recvE).(*ast.SelectorExpr); ok {
		lastField = sel.Sel.Name
	}
	root := rootIdent(recvE)
	var rootObj *types.Var
	if root != nil {
		rootObj, _ = s.info().ObjectOf(root).(*types.Var)
	}
	rootNamed := namedOf(s.typeOf(ast.Expr(root)))
	if rootObj != nil && rootNamed == nil {
		rootNamed = namedOf(rootObj.Type())
	}

	if lastField == "trieMu" {
		l.class = classFlip
		l.inst = classFlip.String()
		return l
	}

	local := rootObj != nil && !rootObj.IsField() && rootObj != s.recv &&
		rootObj.Parent() != s.node.pkg.Types.Scope()
	if local {
		if lastField == "" {
			// Bare handle: a *sync.RWMutex from the latch table is a
			// bucket latch; a value mutex declared in the function is a
			// local coordination lock (retryMu, slowMu, errMu).
			if _, isPtr := rootObj.Type().(*types.Pointer); isPtr {
				l.class = classLatch
				l.inst = classLatch.String()
			} else {
				l.inst = "aux:" + nodeLabel(s.node) + "." + key
			}
			return l
		}
		inStore := rootNamed != nil && rootNamed.Obj().Pkg() != nil && rootNamed.Obj().Pkg().Name() == "store"
		shardName := rootNamed != nil && strings.Contains(strings.ToLower(rootNamed.Obj().Name()), "shard")
		if inStore || shardName {
			l.class = classShard
			l.inst = classShard.String()
			l.localShape = true
		} else {
			l.class = classLatch
			l.inst = classLatch.String()
		}
		return l
	}

	// Receiver- or package-rooted.
	switch lastField {
	case "world", "structural":
		l.class = classWorld
		l.inst = classWorld.String()
		return l
	}
	if rootNamed != nil && rootNamed.Obj().Name() == "File" && lastField == "mu" {
		l.class = classFile
		l.inst = classFile.String()
		return l
	}
	if rootNamed != nil && rootNamed.Obj().Pkg() != nil && rootNamed.Obj().Pkg().Name() == "store" {
		l.class = classShard
		l.inst = classShard.String()
		return l
	}
	if rootNamed != nil && lastField != "" {
		pkg := ""
		if rootNamed.Obj().Pkg() != nil {
			pkg = rootNamed.Obj().Pkg().Name() + "."
		}
		l.inst = "aux:" + pkg + rootNamed.Obj().Name() + "." + lastField
	}
	return l
}

// propagate runs the top-down passes: the may held-at-entry sets with
// witness edges, then the must-held intersection.
func (e *lockEngine) propagate() {
	for rounds := 0; rounds < 64; rounds++ {
		changed := false
		for _, n := range e.graph.nodes {
			if n.sum == nil {
				continue
			}
			for _, ev := range n.sum.calls {
				var inherited []heldInfo
				for _, h := range ev.held {
					q := h
					if q.fn == n { // qualify once, when leaving the acquiring frame
						q.id = n.name + "|" + h.id
					}
					inherited = append(inherited, q)
				}
				for _, id := range sortedKeys(n.sum.entry) {
					inherited = append(inherited, n.sum.entry[id])
				}
				for _, t := range ev.targets {
					if t == n || t.sum == nil {
						continue
					}
					for _, h := range inherited {
						if t.sum.entry == nil {
							t.sum.entry = make(map[string]heldInfo)
							t.sum.entrySrc = make(map[string]entrySource)
						}
						if _, ok := t.sum.entry[h.id]; ok {
							continue
						}
						t.sum.entry[h.id] = h
						t.sum.entrySrc[h.id] = entrySource{caller: n, callPos: ev.pos}
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}

	// Must-held: start every called function at "everything", intersect
	// over incoming edges; roots (no known caller) hold nothing for sure.
	hasCaller := make(map[*funcNode]bool)
	for _, n := range e.graph.nodes {
		if n.sum == nil {
			continue
		}
		for _, ev := range n.sum.calls {
			for _, t := range ev.targets {
				if t != n {
					hasCaller[t] = true
				}
			}
		}
	}
	for _, n := range e.graph.nodes {
		if n.sum != nil && hasCaller[n] {
			n.sum.entryMust = ^uint16(0)
		}
	}
	for rounds := 0; rounds < 64; rounds++ {
		changed := false
		for _, n := range e.graph.nodes {
			if n.sum == nil {
				continue
			}
			for _, ev := range n.sum.calls {
				at := maskOfHeld(ev.held) | n.sum.entryMust
				for _, t := range ev.targets {
					if t == n || t.sum == nil {
						continue
					}
					if next := t.sum.entryMust & at; next != t.sum.entryMust {
						t.sum.entryMust = next
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
}

func sortedKeys(m map[string]heldInfo) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fullHeld is the local context plus the entry set — everything that may
// be held at an event in n.
func fullHeld(n *funcNode, local []heldInfo) []heldInfo {
	out := append([]heldInfo(nil), local...)
	for _, id := range sortedKeys(n.sum.entry) {
		out = append(out, n.sum.entry[id])
	}
	return out
}

// shortPos renders a position as base-file:line for witness paths.
func (e *lockEngine) shortPos(p token.Pos) string {
	pos := e.fset.Position(p)
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

// witness renders the interprocedural provenance of an inherited lock:
// where it was acquired and the call path that carried it to n. Locks
// acquired locally render as "".
func (e *lockEngine) witness(n *funcNode, h heldInfo) string {
	if h.fn == n {
		return ""
	}
	var hops []string
	cur := n
	for range 12 {
		if cur.sum == nil {
			break
		}
		src, ok := cur.sum.entrySrc[h.id]
		if !ok {
			break
		}
		hops = append([]string{fmt.Sprintf("%s at %s", nodeLabel(src.caller), e.shortPos(src.callPos))}, hops...)
		cur = src.caller
		if h.fn == cur {
			break
		}
	}
	if len(hops) == 0 {
		return ""
	}
	path := strings.Join(append(hops, nodeLabel(n)), " -> ")
	return fmt.Sprintf(" (acquired at %s in %s; call path: %s)", e.shortPos(h.pos), nodeLabel(h.fn), path)
}

// isStripesType reports whether t is the subtree stripe table (a named
// type Stripes, possibly behind a pointer) — the receiver the stripe
// primitives key on.
func isStripesType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Stripes"
}

// sanctionedStripeSite reports whether fn is one of the ascending
// multi-stripe acquisition sites single-stripe Lock calls are confined to.
func sanctionedStripeSite(fn string) bool {
	switch fn {
	case "Acquire", "lockSubtrees":
		return true
	}
	return false
}

// terminates reports whether the statement (or block) always transfers
// control away — return, branch, panic — so its lock effects never reach
// the fallthrough path.
func terminates(st ast.Stmt) bool {
	switch x := st.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		if n := len(x.List); n > 0 {
			return terminates(x.List[n-1])
		}
	case *ast.IfStmt:
		if x.Else == nil {
			return false
		}
		return terminates(x.Body) && terminates(x.Else)
	}
	return false
}
