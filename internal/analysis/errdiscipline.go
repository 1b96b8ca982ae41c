package analysis

import (
	"go/ast"
)

// ErrDiscipline flags silently dropped errors from the bucket-store
// surface, the write-ahead log surface, and encoding/binary. A
// store.Store error is never benign: a failed Read is a missed bucket, a
// failed Write or Sync is lost durability, a failed Close can hide a
// failed flush (FileStore syncs on close), and the FaultStore injects
// exactly these errors to prove the layers above propagate them. The WAL
// surface is held to the same bar — a dropped Append or Commit error is
// an operation the caller believes durable and the log never promised,
// and a dropped Checkpoint error can rewind over records that were never
// folded. Call sites that genuinely cannot act on the error — cleanup on
// an already-failing path — must say so with an explicit `_ =` discard,
// which this analyzer (like errcheck) accepts.
var ErrDiscipline = &Analyzer{
	Name: "errdiscipline",
	Doc:  "flag silently dropped errors from store.Store I/O, the wal surface and encoding/binary",
	Run:  runErrDiscipline,
}

// storeErrMethods are the Store-surface methods whose errors must not be
// dropped.
var storeErrMethods = map[string]bool{
	"Read":     true,
	"ReadView": true,
	"Lookup":   true,
	"Write":    true,
	"Sync":     true,
	"Close":    true,
	"Alloc":    true,
	"Free":     true,
}

// codecDecoders are the on-disk codec entry points (bucket pages, trie
// pages, bound headers) whose errors must not be dropped: a decode error
// is detected corruption or a future format version, and discarding it
// turns either into silently missing data.
var codecDecoders = map[string]bool{
	"DecodeBinary": true,
	"DecodeBound":  true,
	"SearchPage":   true,
}

// walErrMethods are the write-ahead-log-surface methods (Log and Device)
// whose errors must not be dropped.
var walErrMethods = map[string]bool{
	"Append":     true,
	"Commit":     true,
	"Checkpoint": true,
	"Sync":       true,
	"TruncateTo": true,
	"Rewind":     true,
	"Contents":   true,
	"Close":      true,
}

func runErrDiscipline(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			var how string
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
				how = "discarded"
			case *ast.DeferStmt:
				call = st.Call
				how = "discarded by defer"
			case *ast.GoStmt:
				call = st.Call
				how = "discarded by go"
			}
			if call == nil || !returnsError(pass.Info, call) {
				return true
			}
			if _, recv, name, ok := methodCall(pass.Info, call); ok {
				t := pass.Info.TypeOf(recv)
				switch {
				case storeErrMethods[name] && isStoreType(t):
					pass.Reportf(call.Pos(),
						"error from %s.%s %s: store I/O errors must be handled or explicitly dropped with `_ =`",
						exprString(recv), name, how)
				case walErrMethods[name] && isWALType(t):
					pass.Reportf(call.Pos(),
						"error from %s.%s %s: write-ahead log errors must be handled or explicitly dropped with `_ =` — a dropped commit is a silently non-durable operation",
						exprString(recv), name, how)
				}
				return true
			}
			for _, path := range []string{"encoding/binary"} {
				if obj := calleeFromPkg(pass.Info, call, path); obj != nil {
					pass.Reportf(call.Pos(),
						"error from %s.%s %s: serialization errors must be handled or explicitly dropped with `_ =`",
						path, obj.Name(), how)
				}
			}
			if obj := calleeFunc(pass.Info, call); obj != nil && codecDecoders[obj.Name()] {
				pass.Reportf(call.Pos(),
					"error from %s %s: a decode error is detected corruption or a future format version and must be handled or explicitly dropped with `_ =`",
					obj.Name(), how)
			}
			return true
		})
	}
}
