package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// drain returns the first n ops of every client's stream of a freshly
// built workload.
func drain(t *testing.T, w *workload, seed uint64, n int) [][]op {
	t.Helper()
	ops := opCount(w, w.short, 1)
	inst, err := w.setup(seed, w.short, w.clients(), ops+warmupCount(w, ops))
	if err != nil {
		t.Fatalf("%s: setup: %v", w.name, err)
	}
	out := make([][]op, len(inst.streams))
	for c, s := range inst.streams {
		// Two fills, so that continuing a stream is covered too.
		out[c] = make([]op, n)
		s.fill(out[c][:n/2])
		s.fill(out[c][n/2:])
	}
	return out
}

func sameOps(a, b [][]op) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return false
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				return false
			}
		}
	}
	return true
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := drain(t, w, 7, 400), drain(t, w, 7, 400), drain(t, w, 8, 400)
		if !sameOps(a, b) {
			t.Errorf("%s: equal seeds gave different streams", w.name)
		}
		if sameOps(a, c) {
			t.Errorf("%s: different seeds gave the same stream", w.name)
		}
	}
}

func TestCountsRepeat(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, err := measure(w, 3, w.short, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := measure(w, 3, w.short, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.Failed != 0 || b.Failed != 0 {
			t.Errorf("%s: oracle rejected %d and %d results", w.name, a.Failed, b.Failed)
		}
		for _, m := range []string{"ios_per_op", "space_amp"} {
			if a.EndToEnd[m] != b.EndToEnd[m] {
				t.Errorf("%s: %s = %v, then %v", w.name, m, a.EndToEnd[m], b.EndToEnd[m])
			}
		}
		if a.EndToEnd["ios_per_op"] <= 0 {
			t.Errorf("%s: ios_per_op = %v", w.name, a.EndToEnd["ios_per_op"])
		}
		if w.clients() == 1 {
			// Not exactly: the machine's scratch sync.Pool is emptied
			// by every collection, so a few allocations per thousand
			// ops depend on when the collector ran.
			x, y := a.EndToEnd["allocs_per_op"], b.EndToEnd["allocs_per_op"]
			if math.Abs(x-y) > 1e-3*x {
				t.Errorf("%s: allocs_per_op = %v, then %v", w.name, x, y)
			}
		}
	}
}

func TestMixedUpdateRebuilds(t *testing.T) {
	w := workloadByName("mixed-update")
	res, err := measure(w, 5, w.short, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilds < 1 {
		t.Errorf("no global rebuild completed in %d ops", res.Ops)
	}
	if _, ok := res.EndToEnd["update_p99_us"]; !ok {
		t.Error("no update latency reported")
	}
}

func TestOracleRejectsWrongResults(t *testing.T) {
	sat := satOf(42, 1)
	hit := op{key: 42, want: 1, kind: opLookup}
	miss := op{key: 42 | missBit, kind: opLookup}
	cases := []struct {
		name   string
		o      op
		sat    []uint64
		ok     bool
		failed bool
	}{
		{"hit", hit, sat[:], true, false},
		{"hit reported absent", hit, nil, false, true},
		{"hit with another version's satellite", hit, []uint64{sat[0], sat[1] + 1}, true, true},
		{"miss", miss, nil, false, false},
		{"miss reported present", miss, sat[:], true, true},
	}
	for _, c := range cases {
		if got := checkLookup(c.o, c.sat, c.ok); got != c.failed {
			t.Errorf("%s: failed = %v, want %v", c.name, got, c.failed)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestManifestMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", m.Paths)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in the manifest, %d in the benchmark", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in the manifest, %q in the benchmark", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}

	var want []metricDef
	for _, d := range endToEnd {
		if d.gated {
			want = append(want, d)
		}
	}
	if len(m.EndToEnd) != len(want) || len(want) > 16 {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the benchmark", len(m.EndToEnd), len(want))
	}
	var setupBound, maxBound float64
	for i, e := range m.EndToEnd {
		name("end-to-end", e.Name)
		d := want[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end metric %d is %+v in the manifest, %+v in the benchmark", i, e, d)
		}
		if !unitRE.MatchString(e.Unit) || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: unit %q, bound %v", e.Name, e.Unit, e.Bound)
		}
		if e.Name == "setup_s" {
			setupBound = e.Bound
		}
		maxBound = math.Max(maxBound, e.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}

	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the benchmark", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		name("per-layer", e.Name)
		d := perLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer metric %d is %+v in the manifest, %+v in the benchmark", i, e, d)
		}
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q", e.Name, e.Unit)
		}
	}
	for _, d := range endToEnd {
		if !d.gated && d.name != "failed_share" && !seen["host."+d.name] && !seen["pdm."+d.name] {
			t.Errorf("%s is in neither list of the manifest", d.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if a, b, c := quartiles([]float64{5}); a != 5 || b != 5 || c != 5 {
		t.Errorf("quartiles of one value = %v %v %v", a, b, c)
	}
}

func TestVerdicts(t *testing.T) {
	rate := endToEndDef("ops_per_s")
	lat := endToEndDef("lookup_p50_us")
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{60, 100, 140, 80, 120}
	cases := []struct {
		name       string
		d          *metricDef
		base, cand []float64
		want       string
	}{
		{"same", rate, steady, steady, "ok"},
		{"faster", rate, steady, []float64{150, 151, 149}, "ok"},
		{"slower within the bound", rate, steady, []float64{99, 98, 99}, "ok"},
		{"slower beyond the bound", rate, steady, []float64{50, 51, 49}, "worse"},
		{"latency up beyond the bound", lat, steady, []float64{150, 151, 149}, "worse"},
		{"latency down", lat, steady, []float64{50, 51, 49}, "ok"},
		{"noisy base", rate, noisy, []float64{100, 100, 100}, "unresolved"},
		{"noisy base, median beyond the bound", rate, noisy, []float64{70, 80, 90}, "unresolved"},
		{"noisy base, every run better", rate, noisy, []float64{150, 160, 170}, "ok"},
		{"noisy base, every run worse", rate, noisy, []float64{30, 40, 50}, "worse"},
		{"noisy candidate", rate, steady, noisy, "unresolved"},
	}
	for _, c := range cases {
		if _, _, got := verdict(c.d, c.base, c.cand); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// lastLine runs the benchmark as the driver does and decodes the result
// line.
func lastLine(t *testing.T, args ...string) (driverLine, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line driverLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line %q: %v\nstderr: %s", lines[len(lines)-1], err, stderr.String())
	}
	return line, code
}

func TestDriverLineEndToEnd(t *testing.T) {
	for _, w := range workloads {
		line, code := lastLine(t, "--workload", w.name, "--seed", "11", "--seconds", "1", "--trace", "0", "-short")
		if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s: exit %d, %+v", w.name, code, line)
		}
		n := 0
		for _, d := range endToEnd {
			if !d.gated {
				continue
			}
			n++
			if v, ok := line.Metrics[d.name]; !ok || v.Unit != d.unit || !(v.Value > 0) {
				t.Errorf("%s: %s = %+v", w.name, d.name, v)
			}
		}
		if len(line.Metrics) != n {
			t.Errorf("%s: %d metrics printed, want %d", w.name, len(line.Metrics), n)
		}
	}
}

func TestDriverLineTraced(t *testing.T) {
	// The trace file is written under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	line, code := lastLine(t, "--workload", "observed-clients", "--seed", "11", "--seconds", "1", "--trace", "1", "-short")
	if code != 0 || !line.Correct {
		t.Fatalf("exit %d, %+v", code, line)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("%d metrics printed, want %d", len(line.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		v, ok := line.Metrics[d.name]
		if !ok || v.Unit != d.unit || v.Value < 0 || math.IsNaN(v.Value) {
			t.Errorf("%s = %+v", d.name, v)
		}
	}
	// The hook chain does work on this workload, the scheduler none.
	if line.Metrics["obs.chain_ns_per_op"].Value <= 0 || line.Metrics["sched.overhead_ns"].Value != 0 {
		t.Errorf("obs.chain_ns_per_op = %v, sched.overhead_ns = %v",
			line.Metrics["obs.chain_ns_per_op"].Value, line.Metrics["sched.overhead_ns"].Value)
	}
	if _, err := os.Stat("benchmark/out/trace-observed-clients.jsonl"); err != nil {
		t.Error(err)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}
