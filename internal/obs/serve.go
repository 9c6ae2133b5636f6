package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"

	"pdmdict/internal/pdm"
)

// Live observability server. Server bundles a Collector (and optionally
// a Ring and a health predicate) behind an embeddable http.Handler:
//
//	/metrics        Prometheus text exposition, hand-rolled — stdlib only
//	/debug/pprof/*  the standard Go profiler endpoints
//	/debug/events   the ring buffer's recent events as trace JSONL
//	/debug/ops      top-K in-flight and recently completed operations
//	/debug/alerts   the watchdog's alert state machine as JSON
//	/healthz        200 "ok" while Healthy() (503 "degraded" otherwise)
//
// The exposition walks sorted tag lists, so /metrics output is a pure,
// deterministically ordered function of the collector state — scrapes
// of identical runs are byte-identical, like the traces.
type Server struct {
	// Collector supplies every metric series. Required.
	Collector *Collector
	// Ring, when set, backs /debug/events.
	Ring *Ring
	// Accountant, when set, backs /debug/ops and the exact per-op
	// metric families (SLO quantiles per client and tag, the exact
	// worst-op gauge, in-flight and flight-recorder counters); nil
	// omits them.
	Accountant *OpAccountant
	// Healthy, when set, gates /healthz; nil means always healthy.
	Healthy func() bool
	// Health, when set, supplies the per-disk health snapshot behind
	// the pdm_disk_health_* metric families and the per-disk lines on
	// /healthz; nil omits both.
	Health func() pdm.HealthReport
	// Monitor, when set, backs /debug/alerts and the pdm_alert_* metric
	// families; nil omits both.
	Monitor *Monitor
	// Sched, when set, supplies the group-commit scheduler snapshot
	// behind /debug/sched and the pdm_sched_* metric families; nil
	// omits both.
	Sched func() SchedSnapshot
	// Fingerprint is the config fingerprint label on pdm_build_info
	// (e.g. "D=8,B=32"); empty renders as config="".
	Fingerprint string
}

// Handler returns the mux serving the endpoints above.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/debug/events", s.events)
	mux.HandleFunc("/debug/ops", s.ops)
	mux.HandleFunc("/debug/alerts", s.alerts)
	mux.HandleFunc("/debug/sched", s.sched)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve listens on addr (":0" picks a free port) and serves the
// handler in a background goroutine. It returns the bound address and
// a stop function that closes the listener.
func (s *Server) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ln.Addr().String(), srv.Close, nil
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	degraded := s.Healthy != nil && !s.Healthy()
	if degraded {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	// The first line stays the machine-readable verdict ("ok" or
	// "degraded"); per-disk detail follows when a health source is set.
	if degraded {
		io.WriteString(w, "degraded\n")
	} else {
		io.WriteString(w, "ok\n")
	}
	if s.Health == nil {
		return
	}
	rep := s.Health()
	for _, d := range rep.Disks {
		if d.State == pdm.Failed && d.Reachable {
			fmt.Fprintf(w, "disk %d: %s (reachable)\n", d.Disk, d.State)
			continue
		}
		fmt.Fprintf(w, "disk %d: %s\n", d.Disk, d.State)
	}
}

func (s *Server) events(w http.ResponseWriter, _ *http.Request) {
	if s.Ring == nil {
		http.Error(w, "no event ring attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	jw := NewJSONLWriter(w)
	for _, e := range s.Ring.Events() {
		jw.Event(e)
	}
	jw.Close() //nolint:errcheck // best-effort debug endpoint
}

// opsDump is the JSON shape served by /debug/ops.
type opsDump struct {
	// InFlight holds the top-K open operations, heaviest first.
	InFlight []OpRecord `json:"inflight"`
	// Completed holds the flight recorder's retained operations, oldest
	// first, truncated to the last K.
	Completed []FlightRecord `json:"completed"`
	// RecordedTotal counts every record the recorder ever retained,
	// including ones the ring has since overwritten.
	RecordedTotal int64 `json:"recorded_total"`
}

// ops serves the accountant's live view: the top-K in-flight ops and
// the flight recorder's most recent completed ops, as JSON. K defaults
// to 32 and can be set with ?k=N.
func (s *Server) ops(w http.ResponseWriter, r *http.Request) {
	if s.Accountant == nil {
		http.Error(w, "no op accountant attached", http.StatusNotFound)
		return
	}
	k := 32
	if v := r.URL.Query().Get("k"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			k = n
		}
	}
	completed, total := s.Accountant.Recorded()
	if len(completed) > k {
		completed = completed[len(completed)-k:]
	}
	dump := opsDump{
		InFlight:      s.Accountant.InFlight(k),
		Completed:     completed,
		RecordedTotal: total,
	}
	if dump.InFlight == nil {
		dump.InFlight = []OpRecord{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(dump) //nolint:errcheck // best-effort debug endpoint
}

// alerts serves the watchdog's full alert state — per-rule instance
// tables plus the retained transition timeline — as indented JSON. The
// snapshot walks sorted labels, so the body is deterministic for a
// deterministic event stream.
func (s *Server) alerts(w http.ResponseWriter, _ *http.Request) {
	if s.Monitor == nil {
		http.Error(w, "no alert monitor attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Monitor.Snapshot()) //nolint:errcheck // best-effort debug endpoint
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// writeMetrics renders the Prometheus text exposition format by hand;
// the repo takes no dependencies, and the format is three line shapes.
func (s *Server) writeMetrics(w io.Writer) {
	c := s.Collector
	_, reads, writes, steps, blocks := c.Totals()

	// Identity first: the build/config stamp, then the deterministic
	// uptime (the step clock doubles as the only time base the repo
	// trusts — wall-clock uptime would break double-scrape identity).
	header(w, "pdm_build_info", "gauge", "Build and configuration identity (value is always 1).")
	sample(w, "pdm_build_info",
		fmt.Sprintf(`go_version=%q,config=%q`, runtime.Version(), s.Fingerprint), 1)
	header(w, "pdm_uptime_steps", "gauge", "Parallel I/O steps elapsed since the collector attached (deterministic uptime).")
	sample(w, "pdm_uptime_steps", "", float64(steps))

	header(w, "pdm_batches_total", "counter", "Batch I/O operations issued, by kind.")
	sample(w, "pdm_batches_total", `kind="read"`, float64(reads))
	sample(w, "pdm_batches_total", `kind="write"`, float64(writes))

	header(w, "pdm_parallel_io_steps_total", "counter", "Cumulative parallel I/O steps (the PDM cost measure).")
	sample(w, "pdm_parallel_io_steps_total", "", float64(steps))

	header(w, "pdm_block_transfers_total", "counter", "Cumulative block transfers across all disks.")
	sample(w, "pdm_block_transfers_total", "", float64(blocks))

	// Per-tag batch I/O. Fault events are split out under their own
	// family: they annotate batches rather than being batches.
	tags := c.Tags()
	names := sortedKeys(tags)
	header(w, "pdm_tag_batches_total", "counter", "Batches attributed to each span tag.")
	for _, name := range names {
		if !strings.HasPrefix(name, pdm.FaultTagPrefix) {
			sample(w, "pdm_tag_batches_total", tagLabel(name), float64(tags[name].Batches))
		}
	}
	header(w, "pdm_tag_steps_total", "counter", "Parallel I/O steps attributed to each span tag.")
	for _, name := range names {
		if !strings.HasPrefix(name, pdm.FaultTagPrefix) {
			sample(w, "pdm_tag_steps_total", tagLabel(name), float64(tags[name].Steps))
		}
	}
	header(w, "pdm_tag_blocks_total", "counter", "Block transfers attributed to each span tag.")
	for _, name := range names {
		if !strings.HasPrefix(name, pdm.FaultTagPrefix) {
			sample(w, "pdm_tag_blocks_total", tagLabel(name), float64(tags[name].Blocks))
		}
	}
	header(w, "pdm_fault_events_total", "counter", "Injected or detected faults, by kind.")
	for _, name := range names {
		if kind, ok := strings.CutPrefix(name, pdm.FaultTagPrefix); ok {
			sample(w, "pdm_fault_events_total", fmt.Sprintf("kind=%q", kind), float64(tags[name].Batches))
		}
	}

	// Per-disk transfers and the skew figure the load-balancing theorems
	// are about (max/mean; 1.0 = perfectly balanced).
	perDisk := c.PerDisk()
	header(w, "pdm_disk_transfers_total", "counter", "Block transfers per disk.")
	var total, max int64
	for d, v := range perDisk {
		sample(w, "pdm_disk_transfers_total", fmt.Sprintf(`disk="%d"`, d), float64(v))
		total += v
		if v > max {
			max = v
		}
	}
	header(w, "pdm_disk_skew_ratio", "gauge", "Max/mean block transfers across disks (1.0 = balanced).")
	skew := 0.0
	if total > 0 && len(perDisk) > 0 {
		skew = float64(max) * float64(len(perDisk)) / float64(total)
	}
	sample(w, "pdm_disk_skew_ratio", "", skew)

	// Batch depth histogram (parallel I/O steps per batch).
	histogram(w, "pdm_batch_depth", "Parallel I/O steps per batch (critical-path depth).", "", &c.Depth, float64(c.DepthSum()))

	// Per-operation series, folded from span events. Root spans only:
	// one sample per Lookup/Insert/Delete, nested phases rolled up.
	ops := c.Ops()
	opNames := sortedKeys(ops)
	header(w, "pdm_ops_total", "counter", "Completed operations (root spans), by tag.")
	for _, name := range opNames {
		sample(w, "pdm_ops_total", tagLabel(name), float64(ops[name].Count))
	}
	header(w, "pdm_op_faults_total", "counter", "Faults observed inside operations, by tag.")
	for _, name := range opNames {
		sample(w, "pdm_op_faults_total", tagLabel(name), float64(ops[name].FaultSum))
	}
	header(w, "pdm_op_steps", "histogram", "Parallel I/O steps per operation.")
	for _, name := range opNames {
		a := ops[name]
		histogramSeries(w, "pdm_op_steps", tagLabel(name), a.Steps.Buckets(), 1, float64(a.StepSum), a.Count)
	}
	header(w, "pdm_op_latency_seconds", "histogram", "Modeled operation latency under the collector's cost model.")
	for _, name := range opNames {
		a := ops[name]
		histogramSeries(w, "pdm_op_latency_seconds", tagLabel(name), a.LatencyMicros.Buckets(), 1e-6, float64(a.LatencySumNanos)/1e9, a.Count)
	}

	header(w, "pdm_open_spans", "gauge", "Spans currently open (growth means unbalanced Span calls).")
	sample(w, "pdm_open_spans", "", float64(c.OpenSpans()))

	if s.Health != nil {
		s.writeHealthMetrics(w)
	}
	if s.Accountant != nil {
		s.writeOpMetrics(w)
	}
	if s.Monitor != nil {
		s.writeAlertMetrics(w)
	}
	if s.Sched != nil {
		s.writeSchedMetrics(w)
	}
}

// sched serves the group-commit scheduler's snapshot as indented JSON.
// The snapshot walks fixed fields and sorted buckets, so the body is
// deterministic for a deterministic workload.
func (s *Server) sched(w http.ResponseWriter, _ *http.Request) {
	if s.Sched == nil {
		http.Error(w, "no scheduler attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Sched()) //nolint:errcheck // best-effort debug endpoint
}

// writeSchedMetrics renders the group-commit scheduler families: how
// much coalescing the admission windows achieve (occupancy, rounds
// saved), the async write path's queue state, and the window-length
// histogram on the deterministic step clock.
func (s *Server) writeSchedMetrics(w io.Writer) {
	snap := s.Sched()

	header(w, "pdm_sched_lookups_total", "counter", "Lookups admitted by the group-commit scheduler.")
	sample(w, "pdm_sched_lookups_total", "", float64(snap.Lookups))
	header(w, "pdm_sched_rounds_total", "counter", "Merged shared read rounds executed.")
	sample(w, "pdm_sched_rounds_total", "", float64(snap.Rounds))
	header(w, "pdm_sched_rounds_saved_total", "counter", "Read rounds avoided by coalescing (participants minus one, per round).")
	sample(w, "pdm_sched_rounds_saved_total", "", float64(snap.RoundsSaved))
	header(w, "pdm_sched_writes_total", "counter", "Mutations admitted to the group-commit write queue.")
	sample(w, "pdm_sched_writes_total", "", float64(snap.Writes))
	header(w, "pdm_sched_flushes_total", "counter", "Group commits of the write queue (intent-log flushes).")
	sample(w, "pdm_sched_flushes_total", "", float64(snap.Flushes))
	header(w, "pdm_sched_overloads_total", "counter", "Writers bounced with ErrOverloaded by backpressure.")
	sample(w, "pdm_sched_overloads_total", "", float64(snap.Overloads))
	header(w, "pdm_sched_queue_depth", "gauge", "Pending mutations in the write queue.")
	sample(w, "pdm_sched_queue_depth", "", float64(snap.QueueDepth))
	header(w, "pdm_sched_queue_peak", "gauge", "High-water mark of the write queue (bounded by the configured depth).")
	sample(w, "pdm_sched_queue_peak", "", float64(snap.QueuePeak))
	header(w, "pdm_sched_pending_reads", "gauge", "Lookups waiting in the open admission window.")
	sample(w, "pdm_sched_pending_reads", "", float64(snap.PendingReads))

	header(w, "pdm_sched_batch_occupancy", "histogram", "Lookups coalesced per shared read round.")
	histogramSeries(w, "pdm_sched_batch_occupancy", "", snap.Occupancy.Buckets, 1, float64(snap.OccupancySum), snap.Occupancy.Total)
	header(w, "pdm_sched_window_steps", "histogram", "Admission window length in parallel I/O steps (deterministic clock).")
	histogramSeries(w, "pdm_sched_window_steps", "", snap.WindowSteps.Buckets, 1, float64(snap.WindowStepSum), snap.WindowSteps.Total)
}

// writeAlertMetrics renders the watchdog's state. The snapshot's rules
// keep construction order and instances come back label-sorted, so the
// exposition is a pure function of monitor state.
func (s *Server) writeAlertMetrics(w io.Writer) {
	snap := s.Monitor.Snapshot()

	header(w, "pdm_alert_state", "gauge", "Alert instance state (0=inactive, 1=pending, 2=firing, 3=resolved).")
	for _, r := range snap.Rules {
		for _, inst := range r.Instances {
			sample(w, "pdm_alert_state", alertLabels(r.Rule, inst.Label), float64(inst.State))
		}
	}
	header(w, "pdm_alert_value", "gauge", "Last sampled rule value per alert instance (skew ratio, burn fraction, down disks).")
	for _, r := range snap.Rules {
		for _, inst := range r.Instances {
			sample(w, "pdm_alert_value", alertLabels(r.Rule, inst.Label), float64(inst.ValueMicro)/1e6)
		}
	}
	header(w, "pdm_alert_transitions_total", "counter", "Alert state-machine transitions per rule.")
	for _, r := range snap.Rules {
		sample(w, "pdm_alert_transitions_total", fmt.Sprintf("rule=%q", r.Rule), float64(r.Transitions))
	}
	header(w, "pdm_alert_cycles_total", "counter", "Complete fire-to-resolve alert cycles per rule.")
	for _, r := range snap.Rules {
		sample(w, "pdm_alert_cycles_total", fmt.Sprintf("rule=%q", r.Rule), float64(r.Cycles))
	}
	header(w, "pdm_alerts_firing", "gauge", "Alert instances currently firing, per rule.")
	for _, r := range snap.Rules {
		sample(w, "pdm_alerts_firing", fmt.Sprintf("rule=%q", r.Rule), float64(r.Firing))
	}
	header(w, "pdm_alerts_pending", "gauge", "Alert instances currently pending, per rule.")
	for _, r := range snap.Rules {
		sample(w, "pdm_alerts_pending", fmt.Sprintf("rule=%q", r.Rule), float64(r.Pending))
	}
}

// alertLabels renders the rule/label pair of one alert instance.
func alertLabels(rule, label string) string {
	return fmt.Sprintf("rule=%q,label=%q", rule, label)
}

// writeHealthMetrics renders the per-disk health states and the
// machine-wide recovery counters. Disks come back as an ordered slice,
// so the exposition stays byte-deterministic.
func (s *Server) writeHealthMetrics(w io.Writer) {
	rep := s.Health()

	header(w, "pdm_disk_health_state", "gauge", "Disk health state (0=healthy, 1=suspect, 2=failed, 3=repairing).")
	for _, d := range rep.Disks {
		sample(w, "pdm_disk_health_state", fmt.Sprintf(`disk="%d"`, d.Disk), float64(d.State))
	}
	header(w, "pdm_disk_health_transitions_total", "counter", "Health state transitions per disk.")
	for _, d := range rep.Disks {
		sample(w, "pdm_disk_health_transitions_total", fmt.Sprintf(`disk="%d"`, d.Disk), float64(d.Transitions))
	}
	header(w, "pdm_disk_faults_total", "counter", "Hard faults (fail-stop, corruption) observed per disk.")
	for _, d := range rep.Disks {
		sample(w, "pdm_disk_faults_total", fmt.Sprintf(`disk="%d"`, d.Disk), float64(d.Faults))
	}
	header(w, "pdm_retry_batches_total", "counter", "Batches reissued by the retry policy after transient faults.")
	sample(w, "pdm_retry_batches_total", "", float64(rep.Retries))
	header(w, "pdm_hedged_reads_total", "counter", "Hedged duplicate reads issued against suspect or stalling disks.")
	sample(w, "pdm_hedged_reads_total", "", float64(rep.Hedges))
	header(w, "pdm_backoff_steps_total", "counter", "Modeled parallel I/O steps charged as retry backoff.")
	sample(w, "pdm_backoff_steps_total", "", float64(rep.BackoffSteps))
	header(w, "pdm_repair_chunks_total", "counter", "Incremental repair and scrub chunks executed.")
	sample(w, "pdm_repair_chunks_total", "", float64(rep.RepairChunks))
	header(w, "pdm_repair_rows_total", "counter", "Bucket rows processed by incremental repair and scrub chunks.")
	sample(w, "pdm_repair_rows_total", "", float64(rep.RepairRows))
}

// writeOpMetrics renders the exact token-based per-op families. Clients
// and tags are walked in sorted order, so the output stays a pure
// function of accountant state.
func (s *Server) writeOpMetrics(w io.Writer) {
	a := s.Accountant
	ops, steps, blocks, faults := a.Totals()

	header(w, "pdm_op_accounted_total", "counter", "Completed token-carrying operations (exact attribution).")
	sample(w, "pdm_op_accounted_total", "", float64(ops))
	header(w, "pdm_op_exact_steps_total", "counter", "Parallel I/O steps charged to completed ops, stall surcharges included.")
	sample(w, "pdm_op_exact_steps_total", "", float64(steps))
	header(w, "pdm_op_exact_blocks_total", "counter", "Block transfers charged to completed ops.")
	sample(w, "pdm_op_exact_blocks_total", "", float64(blocks))
	header(w, "pdm_op_exact_faults_total", "counter", "Fault events charged to completed ops.")
	sample(w, "pdm_op_exact_faults_total", "", float64(faults))

	header(w, "pdm_op_worst_steps_per_key", "gauge", "Exact worst per-operation parallel I/O steps, batch ops amortized per key.")
	sample(w, "pdm_op_worst_steps_per_key", "", float64(a.WorstOp()))
	header(w, "pdm_ops_inflight", "gauge", "Token-carrying operations currently in flight.")
	sample(w, "pdm_ops_inflight", "", float64(a.InFlightCount()))
	header(w, "pdm_op_budget_exceeded_total", "counter", "Completed ops whose exact steps exceeded the accountant's step budget.")
	sample(w, "pdm_op_budget_exceeded_total", "", float64(a.BudgetExceeded()))
	header(w, "pdm_flight_records_total", "counter", "Operations retained by the flight recorder over its lifetime.")
	sample(w, "pdm_flight_records_total", "", float64(a.recordedTotal()))

	quantiles := []struct {
		q string
		v float64
	}{{"0.5", 0.50}, {"0.99", 0.99}, {"0.999", 0.999}}

	clients := a.Clients()
	ids := sortedKeys(clients)
	header(w, "pdm_client_ops_total", "counter", "Completed operations per client.")
	for _, id := range ids {
		sample(w, "pdm_client_ops_total", fmt.Sprintf(`client="%d"`, id), float64(clients[id].Count))
	}
	header(w, "pdm_client_op_latency_seconds", "histogram", "Modeled operation latency per client (SLO histogram).")
	for _, id := range ids {
		agg := clients[id]
		histogramSeries(w, "pdm_client_op_latency_seconds", fmt.Sprintf(`client="%d"`, id), agg.LatencyMicros.Buckets(), 1e-6, float64(agg.LatencySumNanos)/1e9, agg.Count)
	}
	header(w, "pdm_client_op_latency_quantile_seconds", "gauge", "Modeled per-client operation latency quantiles (p50/p99/p999).")
	for _, id := range ids {
		for _, q := range quantiles {
			sample(w, "pdm_client_op_latency_quantile_seconds",
				fmt.Sprintf(`client="%d",q=%q`, id, q.q),
				float64(clients[id].LatencyMicros.Quantile(q.v))/1e6)
		}
	}

	tags := a.Tags()
	names := sortedKeys(tags)
	header(w, "pdm_tag_op_latency_quantile_seconds", "gauge", "Modeled per-tag operation latency quantiles (p50/p99/p999).")
	for _, name := range names {
		for _, q := range quantiles {
			sample(w, "pdm_tag_op_latency_quantile_seconds",
				tagLabel(name)+fmt.Sprintf(",q=%q", q.q),
				float64(tags[name].LatencyMicros.Quantile(q.v))/1e6)
		}
	}
}

// header writes the HELP and TYPE lines of one metric family.
func header(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one sample line; labels is a pre-rendered `k="v"` list
// or empty.
func sample(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %g\n", name, v)
		return
	}
	fmt.Fprintf(w, "%s{%s} %g\n", name, labels, v)
}

// tagLabel renders a span tag as an escaped `tag="..."` label.
func tagLabel(tag string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return `tag="` + r.Replace(tag) + `"`
}

// histogram writes one full unlabeled histogram family: header plus
// the bucket/sum/count series.
func histogram(w io.Writer, name, help, labels string, h *Hist, sum float64) {
	header(w, name, "histogram", help)
	histogramSeries(w, name, labels, h.Buckets(), 1, sum, h.Total())
}

// histogramSeries writes the _bucket/_sum/_count lines of one labeled
// histogram, from a live Hist's buckets or a Summary's. Bucket upper
// bounds are the power-of-two edges scaled by unit (1e-6 turns
// microsecond buckets into seconds).
func histogramSeries(w io.Writer, name, labels string, buckets []HistBucket, unit, sum float64, count int64) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := int64(0)
	for _, b := range buckets {
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, fmt.Sprintf("%g", float64(b.Hi)*unit), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, count)
	sample(w, name+"_sum", labels, sum)
	sample(w, name+"_count", labels, float64(count))
}
