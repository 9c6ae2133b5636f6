package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pdmdict/internal/pdm"
)

// promFamily is one parsed metric family of a text exposition.
type promFamily struct {
	Help    string
	Type    string
	Samples map[string]float64 // full sample name incl. labels → value
}

var promSampleRE = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+]+|\+Inf|-Inf|NaN)$`)
var promLabelRE = regexp.MustCompile(
	`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)

// parseProm is a from-scratch parser for the Prometheus text
// exposition format, strict enough to catch syntax errors in our
// hand-rolled writer: every non-comment line must be a well-formed
// sample, every sample's family must have HELP and TYPE, histogram
// families must have _bucket/_sum/_count series with +Inf last.
func parseProm(t *testing.T, r io.Reader) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	fam := func(name string) *promFamily {
		f := fams[name]
		if f == nil {
			f = &promFamily{Samples: map[string]float64{}}
			fams[name] = f
		}
		return f
	}
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %s", lineno, line)
			}
			fam(name).Help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || (typ != "counter" && typ != "gauge" && typ != "histogram" && typ != "summary" && typ != "untyped") {
				t.Fatalf("line %d: bad TYPE: %s", lineno, line)
			}
			fam(name).Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}
		mm := promSampleRE.FindStringSubmatch(line)
		if mm == nil {
			t.Fatalf("line %d: malformed sample: %s", lineno, line)
		}
		name, labels := mm[1], mm[2]
		if labels != "" {
			for _, lb := range splitLabels(labels[1 : len(labels)-1]) {
				if !promLabelRE.MatchString(lb) {
					t.Fatalf("line %d: malformed label %q", lineno, lb)
				}
			}
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(mm[3], "+"), 64)
		if err != nil {
			t.Fatalf("line %d: bad value: %s", lineno, line)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && fams[b] != nil && fams[b].Type == "histogram" {
				base = b
			}
		}
		f := fams[base]
		if f == nil || f.Help == "" || f.Type == "" {
			t.Fatalf("line %d: sample %s before its HELP/TYPE", lineno, name)
		}
		f.Samples[mm[1]+labels] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return fams
}

// splitLabels splits a label body on commas outside quoted values —
// values like config="D=4,B=2" are legal exposition format.
func splitLabels(body string) []string {
	var out []string
	start, quoted := 0, false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			if quoted {
				i++
			}
		case '"':
			quoted = !quoted
		case ',':
			if !quoted {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	return append(out, body[start:])
}

func serveTestState(t *testing.T) (*Server, *pdm.Machine) {
	t.Helper()
	c := NewCollector()
	ring := NewRing(16)
	m := pdm.NewMachine(pdm.Config{D: 4, B: 2})
	mon := NewMonitor(Tee(c, ring), DefaultRules()...)
	m.SetHook(mon)
	for i := 0; i < 4; i++ {
		end := m.Span(pdm.TagInsert)
		m.BatchWrite([]pdm.BlockWrite{{Addr: pdm.Addr{Disk: i % 4, Block: i}}})
		end.End()
	}
	end := m.Span(pdm.TagLookup)
	m.BatchRead([]pdm.Addr{{Disk: 0, Block: 0}, {Disk: 1, Block: 1}})
	end.End()
	return &Server{
		Collector:   c,
		Ring:        ring,
		Healthy:     func() bool { return !m.Degraded() },
		Health:      m.Health,
		Monitor:     mon,
		Fingerprint: "D=4,B=2",
	}, m
}

func TestMetricsExpositionIsWellFormed(t *testing.T) {
	s, _ := serveTestState(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	fams := parseProm(t, rec.Body)

	for _, want := range []string{
		"pdm_batches_total", "pdm_parallel_io_steps_total", "pdm_block_transfers_total",
		"pdm_tag_batches_total", "pdm_tag_steps_total", "pdm_tag_blocks_total",
		"pdm_fault_events_total", "pdm_disk_transfers_total", "pdm_disk_skew_ratio",
		"pdm_batch_depth", "pdm_ops_total", "pdm_op_faults_total",
		"pdm_op_steps", "pdm_op_latency_seconds", "pdm_open_spans",
		"pdm_disk_health_state", "pdm_disk_health_transitions_total",
		"pdm_disk_faults_total", "pdm_retry_batches_total",
		"pdm_hedged_reads_total", "pdm_backoff_steps_total",
		"pdm_repair_chunks_total", "pdm_repair_rows_total",
		"pdm_build_info", "pdm_uptime_steps",
		"pdm_alert_state", "pdm_alert_value", "pdm_alert_transitions_total",
		"pdm_alert_cycles_total", "pdm_alerts_firing", "pdm_alerts_pending",
	} {
		if fams[want] == nil {
			t.Errorf("family %s missing", want)
		}
	}
	// Build identity: exactly one sample, value 1, carrying the running
	// Go version and the configured fingerprint.
	info := fams["pdm_build_info"]
	wantInfo := fmt.Sprintf(`pdm_build_info{go_version=%q,config="D=4,B=2"}`, runtime.Version())
	if got := info.Samples[wantInfo]; got != 1 || len(info.Samples) != 1 {
		t.Errorf("pdm_build_info = %v, want one sample %s = 1", info.Samples, wantInfo)
	}
	if got := fams["pdm_uptime_steps"].Samples["pdm_uptime_steps"]; got != 5 {
		t.Errorf("uptime steps = %v, want 5 (4 writes + 1 read batch)", got)
	}
	if got := fams["pdm_batches_total"].Samples[`pdm_batches_total{kind="write"}`]; got != 4 {
		t.Errorf("write batches = %v, want 4", got)
	}
	if got := fams["pdm_ops_total"].Samples[`pdm_ops_total{tag="insert"}`]; got != 4 {
		t.Errorf("insert ops = %v, want 4", got)
	}
	// Histogram invariants: count matches +Inf bucket, sum is positive.
	lat := fams["pdm_op_latency_seconds"]
	inf := lat.Samples[`pdm_op_latency_seconds_bucket{tag="lookup",le="+Inf"}`]
	count := lat.Samples[`pdm_op_latency_seconds_count{tag="lookup"}`]
	if inf != 1 || count != 1 {
		t.Errorf("lookup latency: +Inf bucket %v, count %v, want 1/1", inf, count)
	}
	if sum := lat.Samples[`pdm_op_latency_seconds_sum{tag="lookup"}`]; sum <= 0 {
		t.Errorf("lookup latency sum = %v, want > 0", sum)
	}

	// The exposition is deterministic: a second scrape with no traffic
	// in between is byte-identical.
	rec2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, httptest.NewRequest("GET", "/metrics", nil))
	rec3 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec3, httptest.NewRequest("GET", "/metrics", nil))
	if rec2.Body.String() != rec3.Body.String() {
		t.Error("back-to-back scrapes differ")
	}
}

func TestMetricsCountsFaults(t *testing.T) {
	s, m := serveTestState(t)
	m.SetFaultInjector(stallInjector{})
	end := m.Span(pdm.TagLookup)
	if _, err := m.TryBatchRead([]pdm.Addr{{Disk: 0, Block: 0}}); err != nil {
		t.Fatalf("stalled read should still succeed: %v", err)
	}
	end.End()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams := parseProm(t, rec.Body)
	if got := fams["pdm_fault_events_total"].Samples[`pdm_fault_events_total{kind="stall"}`]; got != 1 {
		t.Errorf("stall faults = %v, want 1", got)
	}
	if got := fams["pdm_op_faults_total"].Samples[`pdm_op_faults_total{tag="lookup"}`]; got != 1 {
		t.Errorf("lookup op faults = %v, want 1", got)
	}
}

// stallInjector stalls every read by 2 steps.
type stallInjector struct{}

func (stallInjector) Access(kind pdm.EventKind, _ pdm.Addr) pdm.Fault {
	if kind == pdm.EventRead {
		return pdm.Fault{Kind: pdm.FaultStall, Stall: 2}
	}
	return pdm.Fault{}
}

func TestHealthzFlipsOnDegraded(t *testing.T) {
	s, m := serveTestState(t)
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	// The first line is the machine-readable verdict; per-disk detail
	// lines follow because the server has a Health source.
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "ok\n") {
		t.Fatalf("healthy: %d %q", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "disk 0: healthy\n") {
		t.Fatalf("healthy body lacks per-disk lines: %q", rec.Body.String())
	}
	m.SetFaultInjector(failInjector{})
	if _, err := m.TryBatchRead([]pdm.Addr{{Disk: 0, Block: 0}}); err == nil {
		t.Fatal("fail-stopped read should error")
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.HasPrefix(rec.Body.String(), "degraded\n") {
		t.Fatalf("degraded: %d %q", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "disk 0: failed\n") {
		t.Fatalf("degraded body lacks the failed disk: %q", rec.Body.String())
	}

	// The health metric families track the same snapshot.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams := parseProm(t, rec.Body)
	if got := fams["pdm_disk_health_state"].Samples[`pdm_disk_health_state{disk="0"}`]; got != float64(pdm.Failed) {
		t.Errorf("disk 0 health state = %v, want %v", got, float64(pdm.Failed))
	}
	if got := fams["pdm_disk_faults_total"].Samples[`pdm_disk_faults_total{disk="0"}`]; got < 1 {
		t.Errorf("disk 0 faults = %v, want >= 1", got)
	}
}

// failInjector fail-stops every access.
type failInjector struct{}

func (failInjector) Access(pdm.EventKind, pdm.Addr) pdm.Fault {
	return pdm.Fault{Kind: pdm.FaultFailStop}
}

func TestDebugEventsServesRingAsTrace(t *testing.T) {
	s, _ := serveTestState(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	events, err := ReadEvents(rec.Body)
	if err != nil {
		t.Fatalf("ring output is not a readable trace: %v", err)
	}
	// 5 ops × (begin + batch + end) = 15 events in a 16-slot ring.
	if len(events) != 15 {
		t.Errorf("events = %d, want 15", len(events))
	}
	// Without a ring the endpoint 404s instead of serving nothing.
	s.Ring = nil
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("ringless status = %d, want 404", rec.Code)
	}
}

// The /debug/alerts body is a pure function of monitor state, so a
// scripted monitor pins the exact JSON shape — field names, casing,
// indentation, and omission rules are all load-bearing for dashboards.
func TestDebugAlertsGoldenShape(t *testing.T) {
	breach := true
	mon := NewMonitor(nil, scriptRule("watch", &breach, 0, 0))
	// Two 10-step events: the first eval tick arms Pending at step 10,
	// the second hardens it to Firing at step 20.
	mon.Event(pdm.Event{Kind: pdm.EventRead, Steps: 10, Addrs: []pdm.Addr{{Disk: 0}}})
	mon.Event(pdm.Event{Kind: pdm.EventRead, Steps: 10, Addrs: []pdm.Addr{{Disk: 0}}})
	s := &Server{Collector: NewCollector(), Monitor: mon}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/alerts", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	golden := `{
  "step": 20,
  "transitions_total": 2,
  "rules": [
    {
      "rule": "watch",
      "firing": 1,
      "pending": 0,
      "transitions": 2,
      "cycles": 0,
      "instances": [
        {
          "state": "firing",
          "value_micro": 0,
          "since_step": 10
        }
      ]
    }
  ],
  "timeline": [
    {
      "rule": "watch",
      "from": "inactive",
      "to": "pending",
      "step": 10,
      "value_micro": 0
    },
    {
      "rule": "watch",
      "from": "pending",
      "to": "firing",
      "step": 20,
      "value_micro": 0
    }
  ]
}
`
	if got := rec.Body.String(); got != golden {
		t.Errorf("/debug/alerts body drifted:\ngot:\n%s\nwant:\n%s", got, golden)
	}

	// Without a monitor the endpoint 404s instead of serving nothing.
	s.Monitor = nil
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/alerts", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("monitorless status = %d, want 404", rec.Code)
	}
}

func TestServeBindsAndServesPprof(t *testing.T) {
	s, _ := serveTestState(t)
	addr, stop, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer stop() //nolint:errcheck
	for _, path := range []string{"/metrics", "/healthz", "/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
}
