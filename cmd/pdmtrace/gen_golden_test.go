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
// the traces, not noise. The table covers every structure -struct
// accepts, so a structure added without goldens fails here.
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
	goldens := []struct {
		structure, mix string
		report, events string // SHA-256 of stdout and of the JSONL trace
	}{
		{"basic", "read", "79d37ee1bbf9828806d129e914fcce85732b7ced5d3d82e72394cba7eceed892", "fcaae114d7d7ddf39548d1f7f7602a98d829ea925a2ee15561b07967c38e35f5"},
		{"basic", "write", "1b781b1f6bc05a9fd550bfc0b2a278eb96a6d41f63aefbd7c1c7d5a7bdbb29cc", "9b2800e2e997ef6a19005a8ed75d0e7403c3a7f32fc065647cc3dd3802f8cf4b"},
		{"dynamic", "read", "53854edda94de9a43923de06e358558603a1d94ef27a6fbf68427c61dbb2eea6", "b1baf17c77025cfdece6fb34a53653cdf31be2d0e4aab56724cca428ee6c28df"},
		{"dynamic", "write", "e84bd15fe4959ee10773ba693c220f5c0cf7cb600be7a81cce182953feeba954", "14eb1bbd2aaa8922610b54d9c39f598ee175514239114b2d1eb9450339a5029e"},
		{"oneprobe", "read", "a0e43ec0ac39db30471cd026767ed853f5dd8a55997a5b50a687b3387640810b", "9b688756d7a6dde9bfabc91727d7d666da1662a19c03f10cc621f4311919d8e1"},
		{"oneprobe", "write", "c6587abd7d44bc640cb1062143ebb939650cbfd37e289db0c06765f8ebb0264d", "c57a805760a2d6c47c79dd1c09ef573b3956dc1317ff588af61f9e1ee3e08fb3"},
		{"dict", "read", "3c18ab2e6de1c3e7e0440ecbbbd1b68173d1a93d513ef5dd8eba1122ee7cc0ac", "3924cbb223f423b59e2764e17b7a980b99105e6a7e2b78700d4775f9a2790570"},
		{"dict", "write", "81cb9bfeefe89034bbace7cb4857747b5951eb91b6400085a0e55d8f9e662878", "0f835307834cbfe8386424f78f7cf6a965807b215f28b2f4faad2c5f1a8b183e"},
		{"hash", "read", "8fdae897b2c969e71e589b7519670122654b9b3158b5ce68af3878ed660afd53", "9043f7ed3c8c7ea218dbed655fde573f96f9facd2213a62c0027e3a4e5b3988f"},
		{"hash", "write", "7112031fa9cce1e3087ef1d6a6cc6be3cefdcb5f589f99f2eaf36529bdce8e87", "7c18b5e33d9b208d13baff163f2ed357a63a132f352a398df4e75796f427a06b"},
		{"cuckoo", "read", "156a2f220cedc39e16fcd13a4f7ab6fe157d01e4e7f3be603fe2b48093ceb585", "8941cefd220ffec0d349d6c5ba644da09cace566ee3428f7daf3de45f2016d88"},
		{"cuckoo", "write", "28efd5aea44c74323722ecdf97439de886c6e665e8d310da78065b5ff5b8e638", "c0f4276b9278399d3957ab163030d477c7840d77d17403dfa72681a452fd041c"},
		{"twolevel", "read", "3f6a63d0b1109978f0781c7081ca84dfc9d77a985a93cdad9b846906ee0b72e0", "732b2bad7c9eaef946ef8ab4d2760ebb4a7eaee1d47fa3c303c03d58ea9f55c9"},
		{"twolevel", "write", "b0c380f825f225b93419b9d1a7291c605a9bd2e7f548e5e14fec03279f1e8986", "52ab2c98aeb49dbfa6f0f6ab8b89b9c5a06efab54b4dda8dc6137fe7a7bb4e6f"},
		{"btree", "read", "e9e051eef03c2a7fbabeb062c783332ef9bd92387a83a93d8ff8ca87fe03fe3f", "813299e02b0114d26a322bd94f99f8c10d111e6c75f9fe8bf1bcf9748ccc83f2"},
		{"btree", "write", "561e1ebb7c0ff88d076ea980631ae9966b3b9b4c2654caf346830343ca71eb6a", "b03eae80db4f5e9d1cd553289e594b31f682e6d9c79896cc82a7f6ced06fda7f"},
	}
	covered := map[string]int{}
	for _, g := range goldens {
		covered[g.structure]++
	}
	for name := range builders {
		if covered[name] != 2 {
			t.Errorf("structure %q has %d golden rows, want a read and a write row", name, covered[name])
		}
	}
	for _, g := range goldens {
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
