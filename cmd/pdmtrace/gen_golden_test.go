package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestGenTracesGolden pins the generated-trace path end to end: the
// built binary replays a 3 000-op synthetic trace against each
// structure, read- and write-heavy, and both the report it prints and
// the JSONL event trace it streams must hash to the recorded SHA-256.
// Everything is seeded, so a refactor that keeps the model's I/O
// behavior keeps both byte-identical; a change to either is a change to
// the traces, not noise.
func TestGenTracesGolden(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not available: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "pdmtrace")
	build := exec.Command(goTool, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pdmtrace: %v\n%s", err, out)
	}
	for _, g := range []struct {
		structure, mix string
		report, events string // SHA-256 of stdout and of the JSONL trace
	}{
		{"basic", "read", "79d37ee1bbf9828806d129e914fcce85732b7ced5d3d82e72394cba7eceed892", "fcaae114d7d7ddf39548d1f7f7602a98d829ea925a2ee15561b07967c38e35f5"},
		{"basic", "write", "1b781b1f6bc05a9fd550bfc0b2a278eb96a6d41f63aefbd7c1c7d5a7bdbb29cc", "9b2800e2e997ef6a19005a8ed75d0e7403c3a7f32fc065647cc3dd3802f8cf4b"},
		{"dynamic", "read", "53854edda94de9a43923de06e358558603a1d94ef27a6fbf68427c61dbb2eea6", "1aae778a34bcaceef743dbabeb823c7f2d8ec6b649c83b56bb605ad86330d11f"},
		{"dynamic", "write", "e84bd15fe4959ee10773ba693c220f5c0cf7cb600be7a81cce182953feeba954", "61a79f2f225380c521ead4d37ab1033bcf209d4574cb1d856c3d93bb85402a90"},
		{"oneprobe", "read", "a0e43ec0ac39db30471cd026767ed853f5dd8a55997a5b50a687b3387640810b", "b129718025cea7167633b1fd752294a40c2582e208c9ac4208f85e1ddf78ee9b"},
		{"oneprobe", "write", "c6587abd7d44bc640cb1062143ebb939650cbfd37e289db0c06765f8ebb0264d", "44a505d4e90fd7a3217ad67d5e747b8b38ea207535869a9ed75f1a0e020d82b4"},
		{"dict", "read", "3c18ab2e6de1c3e7e0440ecbbbd1b68173d1a93d513ef5dd8eba1122ee7cc0ac", "ca7a8552afccd83ea54a6029dfe3847fdc995eecddfbc0aeda7f8d1dc7f372f8"},
		{"dict", "write", "81cb9bfeefe89034bbace7cb4857747b5951eb91b6400085a0e55d8f9e662878", "84b5e473bd6c4080d40a614ea1c0e3dd6b946bb199b1a08290ba253b3f35b064"},
	} {
		t.Run(g.structure+"-"+g.mix, func(t *testing.T) {
			dir := t.TempDir()
			run := exec.Command(bin, "-struct", g.structure, "-gen", "3000", "-mix", g.mix, "-hist", "-trace", "ev.jsonl")
			run.Dir = dir
			report, err := run.Output()
			if err != nil {
				t.Fatalf("pdmtrace: %v", err)
			}
			events, err := os.ReadFile(filepath.Join(dir, "ev.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(report)); got != g.report {
				t.Errorf("report digest %s, want %s", got, g.report)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(events)); got != g.events {
				t.Errorf("event trace digest %s, want %s", got, g.events)
			}
		})
	}
}
