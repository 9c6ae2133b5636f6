package lint

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestUnusedWaiver covers stale-waiver detection: a waiver that
// suppresses a finding is kept, one that suppresses nothing is
// reported, one naming a rule outside the running suite is left alone,
// one naming a rule that does not exist is reported, and one naming
// unusedwaiver itself opts out.
func TestUnusedWaiver(t *testing.T) {
	runFixtureSuite(t, []*Analyzer{LockOrder}, "unusedfix/a")
}

// TestUnusedWaiverJSON pins the -json wire shape for stale-waiver
// diagnostics: they flow through Run like any other rule, so the
// machine-readable output CI archives carries them too.
func TestUnusedWaiverJSON(t *testing.T) {
	loader := NewLoader("testdata/src", "")
	pkg, err := loader.Load("unusedfix/a", true)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := Run(pkg.Fset, pkg.Files, pkg.Pkg, pkg.Info, []*Analyzer{LockOrder})
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var stale *Diagnostic
	for i := range diags {
		if diags[i].Rule == "unusedwaiver" {
			stale = &diags[i]
			break
		}
	}
	if stale == nil {
		t.Fatalf("no unusedwaiver diagnostic in %v", diags)
	}
	out, err := json.Marshal(jsonDiagnostic{
		File:    stale.Pos.Filename,
		Line:    stale.Pos.Line,
		Col:     stale.Pos.Column,
		Rule:    stale.Rule,
		Message: stale.Message,
	})
	if err != nil {
		t.Fatalf("marshaling: %v", err)
	}
	for _, frag := range []string{`"rule":"unusedwaiver"`, `"file":`, `"line":`, `"message":"//lint:pdm-allow`} {
		if !strings.Contains(string(out), frag) {
			t.Errorf("JSON diagnostic %s missing %s", out, frag)
		}
	}
}
