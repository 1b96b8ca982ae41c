package analysis

import (
	"go/ast"
)

// ObsOp enforces the observability discipline on the public API.
//
// Rule 1 (PR 1): every method that dispatches a data operation to the
// engine (a call through an `eng` field to GetOp, PutOp, DeleteOp,
// RangeOp or the batches) must also route through the obs timing hook —
// RecordOp, or FinishSpan, which records the whole-op sample when it
// closes the span. The whole point of the observability layer is that
// attaching an Observer covers every operation; a new public method that
// forwards to the engine but skips the hook would silently fall out of
// the latency histograms and make "p99 regressed" undiagnosable for
// exactly the calls that regressed.
//
// Rule 2 (PR 6, span tracing): a function that starts a span must contain
// a deferred FinishSpan. Spans are pooled and their stage totals are only
// published at FinishSpan; an undeferred finish misses early returns, and
// a missing finish leaks the span and loses the op's samples. The defer
// may be conditional in the source the way ours never is — the analyzer
// requires the syntactic `defer ...FinishSpan(...)` form somewhere in the
// function body.
var ObsOp = &Analyzer{
	Name: "obsop",
	Doc:  "public API methods dispatching engine operations must call the obs timing hook (RecordOp/FinishSpan); StartSpan requires a deferred FinishSpan",
	Run:  runObsOp,
}

// engineOps are the engine methods that correspond to obs.Op samples: one
// method per operation, each carrying the operation's (nil-able) span.
var engineOps = map[string]bool{
	"GetOp":      true,
	"PutOp":      true,
	"DeleteOp":   true,
	"RangeOp":    true,
	"GetBatchOp": true,
	"PutBatchOp": true,
}

func runObsOp(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var opCall *ast.CallExpr
			var opName string
			var startCall *ast.CallExpr
			recorded := false
			deferredFinish := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if ds, ok := n.(*ast.DeferStmt); ok {
					if _, _, name, ok := methodCall(pass.Info, ds.Call); ok && name == "FinishSpan" {
						deferredFinish = true
					}
					return true
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				_, recv, name, ok := methodCall(pass.Info, call)
				if !ok {
					return true
				}
				switch name {
				case "RecordOp", "FinishSpan":
					recorded = true
					return true
				case "StartSpan":
					if startCall == nil {
						startCall = call
					}
					return true
				}
				if !engineOps[name] {
					return true
				}
				// Only calls dispatched through an `eng` field count: that
				// is the public File's engine indirection. (f.single /
				// f.multi never serve operations directly.)
				if rsel, ok := recv.(*ast.SelectorExpr); ok && rsel.Sel.Name == "eng" {
					if opCall == nil {
						opCall, opName = call, name
					}
				}
				return true
			})
			fname := fn.Name.Name
			if opCall != nil && !recorded {
				pass.Reportf(opCall.Pos(),
					"%s dispatches eng.%s without the obs timing hook: time the call and report it with Observer.RecordOp (or route through an instrumented public method)",
					fname, opName)
			}
			if startCall != nil && !deferredFinish {
				pass.Reportf(startCall.Pos(),
					"%s starts a span without a deferred FinishSpan: every return path must end the span (defer o.FinishSpan(sp))",
					fname)
			}
		}
	}
}
