// Package lint implements pdmlint, the repo-specific static-analysis
// suite that guards the invariants the paper's bounds rest on but the
// compiler cannot see:
//
//   - iocharge: pdm.Machine calls keep the cost model exact. All block
//     access outside internal/pdm flows through the accounted batch
//     methods, so parallel-I/O counts stay exact; no hook retains an
//     Event.Addrs alias; and the error result of every fault-aware
//     access is consulted, so degraded-mode correctness cannot silently
//     rot.
//   - detrand: no unseeded randomness, wall clock, or order-unstable
//     map iteration reaches a measured or serialized path, so the same
//     seed yields byte-identical traces.
//   - lockorder: lock acquisitions respect the partial order declared
//     in locktable.go, and every mutex struct field is registered
//     there, so the concurrent query/repair paths cannot deadlock.
//   - guardedby: annotated struct fields are only touched with their
//     declared mutex held (see the grammar below), *Locked helpers are
//     only called with their locks held, and no field mixes atomic and
//     plain access.
//
// Where the compiler can hold an invariant, a type does instead of an
// analyzer: span tags are a closed pdm.Tag, and a disk's health state
// is an unexported field only package health's tracker writes.
//
// # Guarded-field grammar
//
// A struct field is declared guarded with a doc or trailing line
// comment of exactly this shape:
//
//	n     int   // guarded by mu
//	state State // guarded by Tracker.mu; prose may follow a semicolon
//
// The guard is either a sibling mutex field (`mu`) or a
// `<Type>.<field>` mutex of another type in the same package, and must
// be registered in the lock-order table (locktable.go). Reads require
// the guard held (RLock suffices); writes require it held exclusively.
// A function whose name ends in "Locked" is exempt inside its body —
// instead, every call site must hold the locks the function
// (transitively) assumes.
//
// The package is a deliberately small stand-in for golang.org/x/tools'
// go/analysis framework (which this module does not depend on): an
// Analyzer inspects one type-checked package through a Pass and reports
// Diagnostics. cmd/pdmlint drives the analyzers either standalone or as
// a `go vet -vettool` unit checker; analyzers are tested hermetically
// against fixtures under testdata/src (see atest.go).
//
// Any finding can be waived at a deliberate, documented call site with
// a trailing or preceding comment of the form
//
//	//lint:pdm-allow <rule>[,<rule>...]: reason
//
// The reason is not parsed but, by convention, mandatory. A waiver that
// suppresses nothing is itself reported (rule "unusedwaiver") whenever
// every rule it names was part of the run, and so is a waiver naming a
// rule that does not exist, so stale escape hatches cannot accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String formats the diagnostic the way `go vet` prints findings.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the rule name used in diagnostics and pdm-allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// All returns the full pdmlint suite.
func All() []*Analyzer {
	return []*Analyzer{IOCharge, DetRand, LockOrder, GuardedBy}
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding anchored at n.
func (p *Pass) Reportf(n ast.Node, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(n.Pos()),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing n is a _test.go file.
func (p *Pass) IsTestFile(n ast.Node) bool {
	return strings.HasSuffix(p.Fset.Position(n.Pos()).Filename, "_test.go")
}

// Run applies the analyzers to one type-checked package and returns the
// surviving diagnostics (pdm-allow-suppressed findings are dropped),
// sorted by position.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	waivers := collectWaivers(fset, files)
	diags = filterAllowed(waivers, diags)
	diags = append(diags, filterAllowed(waivers, staleWaivers(waivers, analyzers))...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags, nil
}

// allowKey identifies one (file, line) pair carrying a pdm-allow waiver.
type allowKey struct {
	file string
	line int
}

// waiverComment is one parsed //lint:pdm-allow comment, with its usage
// tracked so stale waivers can be reported.
type waiverComment struct {
	key   allowKey
	pos   token.Position
	rules []string // as written, for messages
	set   map[string]bool
	used  bool
}

// collectWaivers parses every pdm-allow comment of the package.
func collectWaivers(fset *token.FileSet, files []*ast.File) []*waiverComment {
	var out []*waiverComment
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rules := parseAllow(c.Text)
				if rules == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				w := &waiverComment{
					key:   allowKey{pos.Filename, pos.Line},
					pos:   pos,
					rules: rules,
					set:   map[string]bool{},
				}
				for _, r := range rules {
					w.set[r] = true
				}
				out = append(out, w)
			}
		}
	}
	return out
}

// filterAllowed drops diagnostics waived by a //lint:pdm-allow comment
// on the same line or the line directly above, marking the waivers that
// did the suppressing as used.
func filterAllowed(waivers []*waiverComment, diags []Diagnostic) []Diagnostic {
	if len(waivers) == 0 {
		return diags
	}
	byKey := map[allowKey][]*waiverComment{}
	for _, w := range waivers {
		byKey[w.key] = append(byKey[w.key], w)
	}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, w := range byKey[allowKey{d.Pos.Filename, line}] {
				if w.set[d.Rule] {
					w.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// staleWaivers reports every waiver rule name that is no analyzer of
// All() (a typo, or a deleted rule), and the waivers that suppressed
// nothing, provided every rule they name was part of the run (a waiver
// for an analyzer outside the suite may be load-bearing in a fuller run,
// so it is left alone). Waivers naming unusedwaiver itself are exempt
// from the second check: they exist to quiet it.
func staleWaivers(waivers []*waiverComment, analyzers []*Analyzer) []Diagnostic {
	suite, known := map[string]bool{}, map[string]bool{"unusedwaiver": true}
	for _, a := range analyzers {
		suite[a.Name] = true
	}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, w := range waivers {
		for _, r := range w.rules {
			if !known[r] {
				out = append(out, Diagnostic{
					Pos:     w.pos,
					Rule:    "unusedwaiver",
					Message: fmt.Sprintf("//lint:pdm-allow names %q, which is no pdmlint rule; correct or remove it", r),
				})
			}
		}
		if w.used || w.set["unusedwaiver"] {
			continue
		}
		all := true
		for r := range w.set {
			if !suite[r] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		out = append(out, Diagnostic{
			Pos:  w.pos,
			Rule: "unusedwaiver",
			Message: fmt.Sprintf("//lint:pdm-allow %s suppresses no diagnostic; remove the stale waiver",
				strings.Join(w.rules, ",")),
		})
	}
	return out
}

// parseAllow extracts the rule names from a //lint:pdm-allow comment,
// or returns nil if the comment is not one.
func parseAllow(text string) []string {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	const prefix = "lint:pdm-allow"
	if !strings.HasPrefix(text, prefix) {
		return nil
	}
	rest := strings.TrimSpace(text[len(prefix):])
	// Everything after a ':' is the human reason.
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	var rules []string
	for _, f := range fields {
		if f != "" {
			rules = append(rules, f)
		}
	}
	if len(rules) == 0 {
		return nil
	}
	return rules
}

// inspectWithStack walks root calling fn with each node and the stack of
// its ancestors (outermost first, not including n itself). If fn returns
// false the node's children are skipped.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
