package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// BatchErr enforces that the error result of every fault-aware access
// is consulted. The machine's TryBatchRead*/TryBatchWrite* family (the
// plain, Op, Shared and buffer-taking Into forms) returns a *pdm.BatchError
// whose per-block entries are the only way to know which replicas
// survived; LookupTry/ContainsTry propagate it. Discarding the error —
// as an expression statement, in go/defer, or by assigning it to the
// blank identifier — silently converts degraded-mode operation into
// wrong answers, so it is rejected everywhere, tests included.
var BatchErr = &Analyzer{
	Name: "batcherr",
	Doc: "the error result of TryBatchRead*/TryBatchWrite*/LookupTry/ContainsTry must be consulted; " +
		"it carries the per-block failures degraded-mode correctness depends on",
	Run: runBatchErr,
}

func runBatchErr(pass *Pass) error {
	for _, f := range pass.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := faultAwareCall(pass.Info, call)
			if !ok {
				return true
			}
			if len(stack) == 0 {
				return true
			}
			switch parent := stack[len(stack)-1].(type) {
			case *ast.ExprStmt:
				pass.Reportf(call, "result of %s discarded; its error reports per-block failures that must be consulted", name)
			case *ast.GoStmt, *ast.DeferStmt:
				pass.Reportf(call, "result of %s discarded by go/defer; call it in a function that consults the error", name)
			case *ast.AssignStmt:
				// The call is the sole RHS; the error is the last result.
				if len(parent.Rhs) == 1 && parent.Rhs[0] == ast.Expr(call) && len(parent.Lhs) > 1 {
					if id, ok := parent.Lhs[len(parent.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
						pass.Reportf(call, "error result of %s assigned to blank identifier; consult it (degraded-mode failures arrive there)", name)
					}
				}
			}
			return true
		})
	}
	return nil
}

// faultAwareCall reports whether call invokes one of the fault-aware
// accessors whose trailing error result is load-bearing, returning a
// printable name. Every pdm.Machine method named TryBatchRead* or
// TryBatchWrite* is matched, so a new variant (an attributed form, a
// buffer-taking form) is covered the day it is added;
// LookupTry/ContainsTry are matched on any receiver (several
// dictionaries and interfaces implement them), provided the last result
// is an error.
func faultAwareCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	if strings.HasPrefix(fn.Name(), "TryBatchRead") || strings.HasPrefix(fn.Name(), "TryBatchWrite") {
		if isMethodOn(fn, "pdm", "Machine") {
			return "pdm.Machine." + fn.Name(), true
		}
		return "", false
	}
	switch fn.Name() {
	case "LookupTry", "ContainsTry":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || sig.Results().Len() == 0 {
			return "", false
		}
		last := sig.Results().At(sig.Results().Len() - 1).Type()
		if named, ok := last.(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			recv := "?"
			if n := recvNamed(fn); n != nil {
				recv = n.Obj().Name()
			}
			return recv + "." + fn.Name(), true
		}
	}
	return "", false
}
