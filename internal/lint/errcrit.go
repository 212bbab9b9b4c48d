package lint

import (
	"go/ast"
	"go/types"
)

// errcritPkgs scopes the rule to the crash-safety-critical packages: the
// WAL, the digest transport, the analysis center, and the metrics registry.
// The first three are the places where a silently dropped write error
// converts "kill -9 loses nothing" into "kill -9 loses whatever the kernel
// had not flushed" with no test able to notice; the registry is in scope
// because a scrape that drops an exposition write error serves a silently
// truncated /metrics page that still parses — monitoring reads wrong, small
// counters as the truth. traceio and packet joined in PR 8: a trace capture
// whose Write/Flush error vanishes produces a short .dct file that replays as
// a quieter network than the one measured, and packet's serialization path
// feeds both of them. shard joined with the scatter/gather tier: a dropped
// scatter Send or report-push error silently turns a routed digest into a
// missing one — the coordinator would then merge a verdict that looks
// healthy but never saw the data. daemon joined when the dcsd assembly left
// cmd/: it owns the journal's Close, the listeners' Closes and the event-log
// file, and a dropped error there is the last chance lost to learn that a
// buffered write never reached the disk or the coordinator.
var errcritPkgs = []string{"journal", "transport", "center", "metrics", "traceio", "packet", "shard", "daemon"}

// errcritMethods are the write-path method names whose error result must not
// be discarded inside the scoped packages: writes, syncs, deadline arming,
// truncation, and closes (a Close error on a written file is the last chance
// to learn a buffered write failed).
var errcritMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteTo": true, "ReadFrom": true,
	"Sync": true, "Flush": true, "Close": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"Truncate": true,
	// UDP datagram path: sends and socket-buffer sizing. A discarded
	// WriteToUDP error hides local send failures (ENOBUFS, unreachable) that
	// are NOT the network loss the protocol tolerates; a discarded
	// SetReadBuffer error hides a kernel refusing the burst headroom the
	// epoch-boundary flood depends on.
	"WriteToUDP": true, "WriteMsgUDP": true,
	"SetReadBuffer": true, "SetWriteBuffer": true,
	// Journal FS-interface write path: the degraded-mode work routes
	// filesystem mutations through an injectable journal.FS, and the method
	// forms (fs.Remove, fs.Rename, fs.SyncDir, fs.MkdirAll) must stay as
	// in-scope as the os package functions they wrap — an interface
	// indirection is not an error laundry.
	"Remove": true, "Rename": true, "SyncDir": true, "MkdirAll": true,
}

// errcritOsFuncs are package-level os functions on the same footing.
var errcritOsFuncs = map[string]bool{
	"Remove": true, "RemoveAll": true, "Rename": true, "Truncate": true, "WriteFile": true,
}

// errcritRule flags write-path calls whose error result is discarded in the
// journal/transport/center packages. The journal's kill-9 guarantee is an
// induction over "every frame acknowledged was durably framed"; one ignored
// Write or Sync error breaks the induction silently. Deliberate best-effort
// calls (closing a read-only file, removing an already-empty segment) carry
// a //dcslint:ignore errcrit comment stating why the error cannot lose data.
var errcritRule = Rule{
	Name: "errcrit",
	Doc:  "no discarded error results from write-path calls (Write/Sync/Flush/Close/Set*Deadline/Truncate, WriteToUDP/Set*Buffer, os.Remove/Rename/... and their journal.FS method forms) in journal, transport, center, metrics, traceio, packet, shard, daemon",
	Run:  runErrcrit,
}

func runErrcrit(pass *Pass) {
	if !pass.PathHasSegment(errcritPkgs...) {
		return
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				checkDiscardedCall(pass, stmt.X, "discarded")
			case *ast.DeferStmt:
				checkDiscardedCall(pass, stmt.Call, "discarded by defer")
			case *ast.GoStmt:
				checkDiscardedCall(pass, stmt.Call, "discarded by go")
			case *ast.AssignStmt:
				if allBlank(stmt.Lhs) && len(stmt.Rhs) == 1 {
					checkDiscardedCall(pass, stmt.Rhs[0], "assigned to _")
				}
			}
			return true
		})
	}
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		ident, ok := e.(*ast.Ident)
		if !ok || ident.Name != "_" {
			return false
		}
	}
	return true
}

// checkDiscardedCall reports expr when it is a write-path call returning an
// error that the surrounding statement throws away.
func checkDiscardedCall(pass *Pass, expr ast.Expr, how string) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	info := pass.Pkg.Info
	name := sel.Sel.Name
	if pkgIdent, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := info.Uses[pkgIdent].(*types.PkgName); ok {
			// Package-level function call.
			if pn.Imported().Path() == "os" && errcritOsFuncs[name] && callReturnsError(info, call) {
				pass.Reportf(call.Pos(),
					"error from os.%s %s; the write path must surface every failure (check it or //dcslint:ignore errcrit <reason>)", name, how)
			}
			// Same-module helpers like transport.Write are methods of no
			// receiver; treat a package function named like a write method
			// (Write, Sync, ...) the same way.
			if errcritMethods[name] && pn.Imported().Path() != "os" && callReturnsError(info, call) {
				pass.Reportf(call.Pos(),
					"error from %s.%s %s; the write path must surface every failure (check it or //dcslint:ignore errcrit <reason>)", pn.Name(), name, how)
			}
			return
		}
	}
	if !errcritMethods[name] {
		return
	}
	if !callReturnsError(info, call) {
		return
	}
	pass.Reportf(call.Pos(),
		"error from %s.%s %s; the write path must surface every failure (check it or //dcslint:ignore errcrit <reason>)",
		exprString(sel.X), name, how)
}

// callReturnsError reports whether the call's only or last result is error.
func callReturnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
