package analysis

import (
	"go/ast"
	"strings"
)

// Durability flags non-durable writes to the repository's persistent
// files. The crash-consistency contract rests on three idioms: bytes
// destined for a *.th file go through store.WriteFileDurable (os.WriteFile
// leaves them in the page cache, where a power cut eats them), a
// rename installing a *.th file is followed by store.SyncDir on the
// parent directory (the rename itself is metadata the directory must
// flush), and a write-ahead-log truncation (TruncateTo) or rewind
// (Rewind) is followed by a Sync in the same function — an unsynced
// truncation can resurrect discarded log records after a crash, and an
// unsynced rewind leaves the new generation's marker buffered over the
// previous generation's frames, so a crash that tears it can replay
// operations a checkpoint already folded. A bare os.WriteFile, an
// unaccompanied os.Rename on a *.th path, or an unsynced log truncation
// or rewind is exactly the torn-state bug the crash harness exists to
// catch, so it fails the lint gate instead of waiting for a power cut.
var Durability = &Analyzer{
	Name: "durability",
	Doc:  "flag os.WriteFile/os.Rename on *.th paths and unsynced wal truncations and rewinds that skip the fsync discipline",
	Run:  runDurability,
}

func runDurability(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			syncsDir := false
			syncs := false
			var renames []*ast.CallExpr
			var truncates, rewinds []*ast.CallExpr
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch calleeName(pass, call) {
				case "os.WriteFile":
					if mentionsTHPath(call) {
						pass.Reportf(call.Pos(),
							"os.WriteFile on a *.th path is not durable: use store.WriteFileDurable so the bytes are fsynced before use")
					}
				case "os.Rename":
					if mentionsTHPath(call) {
						renames = append(renames, call)
					}
				case "store.SyncDir", "SyncDir", "store.WriteFileDurable", "WriteFileDurable":
					syncsDir = true
				}
				if _, recv, name, ok := methodCall(pass.Info, call); ok && isWALType(pass.Info.TypeOf(recv)) {
					switch name {
					case "TruncateTo":
						truncates = append(truncates, call)
					case "Rewind":
						rewinds = append(rewinds, call)
					case "Sync":
						syncs = true
					}
				}
				return true
			})
			if !syncsDir {
				for _, call := range renames {
					pass.Reportf(call.Pos(),
						"os.Rename installing a *.th file without store.SyncDir on the parent directory: the rename is not durable until the directory is fsynced")
				}
			}
			// A truncation or rewind inside a Device implementation is the
			// primitive itself, not a use of it; only call sites outside
			// the device (Log code, recovery paths) owe the pairing.
			if !syncs && !isDeviceMethod(pass, fn) {
				for _, call := range truncates {
					pass.Reportf(call.Pos(),
						"wal TruncateTo without a Sync in the same function: the truncation is buffered, and a crash can resurrect log records a checkpoint already folded")
				}
				for _, call := range rewinds {
					pass.Reportf(call.Pos(),
						"wal Rewind without a Sync in the same function: the next generation's marker is buffered over the previous generation's frames, and a crash that tears it can replay log records a checkpoint already folded")
				}
			}
		}
	}
}

// isDeviceMethod reports whether fn is a method on a wal Device
// implementation (receiver type in the wal surface but not Log).
func isDeviceMethod(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	t := pass.Info.TypeOf(fn.Recv.List[0].Type)
	if t == nil || !isWALType(t) {
		return false
	}
	n := namedOf(t)
	return n != nil && n.Obj() != nil && n.Obj().Name() != "Log"
}

// calleeName renders the callee as pkg.Func / recv.Method / Func for the
// small vocabulary this analyzer matches.
func calleeName(pass *Pass, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return ""
}

// mentionsTHPath reports whether any argument subtree contains a string
// literal naming a .th file (directly or via filepath.Join pieces).
func mentionsTHPath(call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && strings.Contains(lit.Value, ".th") {
				found = true
			}
			return !found
		})
	}
	return found
}
