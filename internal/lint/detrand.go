package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strconv"
)

// DetRand enforces the determinism contract of the measured packages:
// same seed, same workload → byte-identical traces and bit-identical
// repair. In internal/{core,pdm,fault,expander,loadbalance,obs,heal,
// sched,bench} non-test code it rejects (1) the process-global
// math/rand functions (only seeded *rand.Rand generators are allowed —
// the constructors rand.New/NewSource/NewZipf/NewPCG/NewChaCha8 pass),
// (2) crypto/rand, (3) the wall clock (time.Now/Since/Until) — whether
// called directly or passed as a function value (e.g. handing time.Now
// to the machine's SetWallClock from inside a measured package; wall
// clocks are injected from cmd/ and test code only), including the timer
// functions (time.Sleep/After/Tick/NewTimer/NewTicker/AfterFunc) —
// retry backoff and repair pacing must be modeled parallel-I/O steps or
// notification-driven, never wall-time waits — and (4) iteration over a
// map that feeds order-sensitive output: a loop body that emits
// (Encode/Write/Fprintf/...), renders the /metrics exposition
// (sample/histogramSeries), or builds an I/O batch (append of
// pdm.Addr/pdm.BlockWrite elements) observes Go's randomized map
// order, which would leak into traces, snapshots, metrics scrapes, or
// the machine's event stream.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "no unseeded randomness, wall clock, or map-ordered serialization in the measured packages; " +
		"determinism claims (same seed, byte-identical trace) depend on it",
	Run: runDetRand,
}

// detRandScope matches the import paths of the packages whose
// determinism the paper's claims depend on.
var detRandScope = regexp.MustCompile(`(^|/)internal/(core|pdm|fault|expander|loadbalance|obs|heal|sched|bench)(/|$)`)

// randConstructors are the math/rand functions that build seeded
// generators rather than drawing from global state.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// emitNames are callee names (method or function) that serialize or
// publish whatever order the enclosing loop visits.
var emitNames = map[string]bool{
	"Encode": true, "Marshal": true, "MarshalIndent": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Event": true, "Emit": true, "Record": true,
	// The /metrics exposition helpers (internal/obs/serve.go): scrapes
	// must be byte-identical across runs, like traces.
	"sample": true, "histogramSeries": true,
}

func runDetRand(pass *Pass) error {
	if !detRandScope.MatchString(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "crypto/rand" {
				pass.Reportf(imp, "crypto/rand is nondeterministic by design; measured packages must thread a seeded *rand.Rand")
			}
		}
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, n)
				if fn == nil {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() != nil || fn.Pkg() == nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "math/rand", "math/rand/v2":
					if !randConstructors[fn.Name()] {
						pass.Reportf(n, "global %s.%s draws from process-global random state; thread a seeded *rand.Rand from config instead",
							fn.Pkg().Name(), fn.Name())
					}
				case "time":
					switch fn.Name() {
					case "Now", "Since", "Until":
						pass.Reportf(n, "time.%s reads the wall clock on a measured path; inject a logical clock or pass timestamps in from outside the measured packages", fn.Name())
					case "Sleep", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc":
						pass.Reportf(n, "time.%s paces a measured path by wall time; backoff and repair pacing must be modeled parallel-I/O steps (pdm.Machine.ChargeSteps) or notification-driven, never timers", fn.Name())
					}
				}
			case *ast.SelectorExpr:
				checkClockValue(pass, n, stack)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkClockValue flags time.Now/Since/Until referenced as a function
// value rather than called — the shape of smuggling a wall clock into
// an injection point (SetWallClock and friends) from inside a measured
// package. Direct calls are reported by the CallExpr case instead.
func checkClockValue(pass *Pass, sel *ast.SelectorExpr, stack []ast.Node) {
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
	default:
		return
	}
	// Skip the Fun position of a direct call — already reported above.
	if len(stack) > 0 {
		if call, ok := stack[len(stack)-1].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == sel {
			return
		}
	}
	pass.Reportf(sel, "time.%s passed as a value hands a wall clock to a measured path; clocks are injected from cmd/ or test code only", fn.Name())
}

// checkMapRange flags a range over a map whose body feeds
// order-sensitive output.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	var sink string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "append" && appendsAddrBatch(pass.Info, call) {
				sink = "an I/O batch (pdm.Addr/pdm.BlockWrite order reaches the trace)"
			} else if emitNames[fun.Name] {
				sink = fun.Name
			}
		case *ast.SelectorExpr:
			if emitNames[fun.Sel.Name] {
				sink = fun.Sel.Name
			}
		}
		return true
	})
	if sink != "" {
		pass.Reportf(rng, "map iteration order is randomized but this loop feeds %s; collect and sort the keys first so output is byte-identical across runs", sink)
	}
}

// appendsAddrBatch reports whether an append call grows a slice of
// pdm.Addr or pdm.BlockWrite — the batch shapes whose order the machine
// charges and traces.
func appendsAddrBatch(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	t := info.TypeOf(call.Args[0])
	if t == nil {
		return false
	}
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return isNamed(slice.Elem(), "pdm", "Addr") || isNamed(slice.Elem(), "pdm", "BlockWrite")
}
