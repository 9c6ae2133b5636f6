package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// IOCharge is the one analyzer of how pdm.Machine calls are used:
//
//   - Outside internal/pdm, every block access flows through the
//     accounted batch methods. Peek and VerifyChecksums read backing
//     storage without charging a parallel I/O, so they are reserved for
//     tests and waived diagnostics paths; silent use would make Figure
//     1's measured I/O counts undercount real work.
//   - Outside internal/pdm, no code retains an alias of Event.Addrs,
//     which is only valid for the duration of the hook call.
//   - Everywhere, tests and internal/pdm included, the error of a
//     TryBatchRead*/TryBatchWrite* call (a *pdm.BatchError, the only
//     record of which replicas survived) or of a LookupTry, which
//     propagates it, is consulted. Discarding it — as a statement, in
//     go/defer, or into the blank identifier — silently turns
//     degraded-mode operation into wrong answers.
var IOCharge = &Analyzer{
	Name: "iocharge",
	Doc: "pdm.Machine calls must keep the cost model exact: block access outside internal/pdm goes through the " +
		"accounted batch methods (Peek/VerifyChecksums bypass parallel-I/O accounting), retained Event.Addrs alias " +
		"the machine's batch buffer, and the error of TryBatchRead*/TryBatchWrite*/LookupTry must be consulted",
	Run: runIOCharge,
}

// uncharged are the Machine methods that touch backing storage without
// accounting parallel I/Os.
var uncharged = map[string]bool{
	"Peek":            true,
	"VerifyChecksums": true,
}

func runIOCharge(pass *Pass) error {
	// The machine's own package owns the backing storage and the batch
	// buffer; only the error rule applies there, and in tests.
	home := pass.Pkg.Name() == "pdm"
	for _, f := range pass.Files {
		boundary := !home && !pass.IsTestFile(f)
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := faultAwareCall(pass.Info, n); ok {
					checkConsulted(pass, n, name, stack)
				}
				fn := calleeFunc(pass.Info, n)
				if boundary && fn != nil && uncharged[fn.Name()] && isMethodOn(fn, "pdm", "Machine") {
					pass.Reportf(n, "pdm.Machine.%s reads backing storage without charging parallel I/Os; "+
						"use BatchRead/TryBatchRead, or waive a diagnostics-only path with //lint:pdm-allow iocharge", fn.Name())
				}
			case *ast.SelectorExpr:
				if boundary && n.Sel.Name == "Addrs" && isNamed(pass.Info.TypeOf(n.X), "pdm", "Event") && retainsAlias(n, stack) {
					pass.Reportf(n, "retaining pdm.Event.Addrs aliases the machine's batch buffer, which is only valid "+
						"during the hook call; copy it first (append([]pdm.Addr(nil), e.Addrs...))")
				}
			}
			return true
		})
	}
	return nil
}

// checkConsulted reports a fault-aware call whose error result is
// dropped: a bare statement, a go/defer, or an assignment whose last
// (error) target is the blank identifier.
func checkConsulted(pass *Pass, call *ast.CallExpr, name string, stack []ast.Node) {
	if len(stack) == 0 {
		return
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.ExprStmt:
		pass.Reportf(call, "result of %s discarded; its error reports per-block failures that must be consulted", name)
	case *ast.GoStmt, *ast.DeferStmt:
		pass.Reportf(call, "result of %s discarded by go/defer; call it in a function that consults the error", name)
	case *ast.AssignStmt:
		if len(parent.Rhs) == 1 && parent.Rhs[0] == ast.Expr(call) && len(parent.Lhs) > 1 {
			if id, ok := parent.Lhs[len(parent.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
				pass.Reportf(call, "error result of %s assigned to blank identifier; consult it (degraded-mode failures arrive there)", name)
			}
		}
	}
}

// faultAwareCall reports whether call invokes a fault-aware accessor
// whose trailing error result is load-bearing, returning a printable
// name. Every pdm.Machine method named TryBatchRead* or TryBatchWrite*
// is matched, so a new variant is covered the day it is added;
// LookupTry is matched on any receiver (several dictionaries and
// interfaces implement it), provided its last result is an error.
func faultAwareCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	if strings.HasPrefix(fn.Name(), "TryBatchRead") || strings.HasPrefix(fn.Name(), "TryBatchWrite") {
		return "pdm.Machine." + fn.Name(), isMethodOn(fn, "pdm", "Machine")
	}
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	if fn.Name() != "LookupTry" || sig.Recv() == nil || res.Len() == 0 ||
		!types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type()) {
		return "", false
	}
	recv := "?"
	if n := recvNamed(fn); n != nil {
		recv = n.Obj().Name()
	}
	return recv + ".LookupTry", true
}

// retainsAlias reports whether the Event.Addrs selector at the top of
// the walk is being stored somewhere that outlives the hook call: as a
// composite-literal field value, or assigned through a selector or
// index expression (a field or slot of a longer-lived object). Local
// reads — ranging, indexing, len, passing onward — are fine.
func retainsAlias(sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.KeyValueExpr:
		return parent.Value == sel
	case *ast.CompositeLit:
		for _, elt := range parent.Elts {
			if elt == sel {
				return true
			}
		}
	case *ast.AssignStmt:
		for i, rhs := range parent.Rhs {
			if rhs != sel || i >= len(parent.Lhs) {
				continue
			}
			switch parent.Lhs[i].(type) {
			case *ast.SelectorExpr, *ast.IndexExpr:
				return true
			}
		}
	}
	return false
}
