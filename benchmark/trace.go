package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"pdmdict"
	"pdmdict/internal/bucket"
	"pdmdict/internal/expander"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// The traced pass reruns a workload at a quarter of its op count with a
// recording hook on the dictionary's machine. Every public call is timed
// as a root span; for one call in sampleEvery the harness also keeps the
// events the call emitted and then, out of line, times the same work in
// each layer underneath — the neighbor function on the call's keys, the
// machine read on the captured addresses, the bucket codec on the blocks
// that read returns, the hook chain on the captured events — as child
// spans. A layer's self time is the root minus its children. All spans
// stay in memory until the pass ends.
//
// The machine read is replayed on the workload's own machine, under an
// operation token the recorder recognises and drops, so the replay is
// neither counted nor forwarded to the workload's hook chain. It finds
// the blocks the call just read still in cache, so it costs somewhat
// less than the call's own read did and the self time errs upward. A
// workload with a fault injector replays on an identical twin without
// injector instead (TryBatchRead on its own machine would draw faults
// and move the health counters).

// traceShare of the measured op count is what the traced pass runs.
const traceShare = 4

// sampleEvery-th calls of a client get child spans.
const sampleEvery = 32

// span is one recorded interval. Spans of one call share Op and Client;
// Parent is the ID of the span that caused this one, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Client  int    `json:"client"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Counted is false for a probe that times work the call itself does
	// not do; it is left out of the self-time sum.
	Counted bool `json:"counted"`
}

// clientTrace is one client's capture state. The recorder appends to
// events only while the client's own call is in flight, and the client
// reads them only after that call has returned.
type clientTrace struct {
	sampling bool
	events   []pdm.Event
	spans    []span
	chain    pdm.Hook // replica of the workload's hook chain, nil when it has none
	probeOp  *pdm.Op  // token of the client's replayed reads

	// Per-sampled-call figures, for the self-time and ratio metrics.
	rootNS   []float64
	childNS  []float64 // counted children only
	lookupNS []float64 // roots of the sampled lookups
	records  int       // records Decode materialised
	hits     int       // sampled keys that were stored
	// retained keeps the events of the first retainedCalls sampled calls
	// for the consumer probes that run after the pass.
	retained      []pdm.Event
	retainedCalls int
	sink          int // keeps pure probe calls alive
}

// recorder is the tracing hook. The machine calls it under its emission
// lock, so its counters need no further synchronisation.
type recorder struct {
	next    pdm.Hook
	clients []*clientTrace

	events   int64
	readBlks int64
	blocks   int64
	steps    int64
	maxDepth int
}

// schedClientOf extracts the client from a scheduler-minted token ID
// (high bit set, client in bits 32..62: see pdmdict.Scheduled.MintOp).
func schedClientOf(id uint64) (int, bool) {
	if id>>63 == 0 {
		return 0, false
	}
	return int(id >> 32 & 0x7fffffff), true
}

// probeOpBit marks the tokens of replayed reads. Machine-minted IDs
// count up from 1 and scheduler-minted ones have bit 63 set, so neither
// collides with it.
const probeOpBit = uint64(1) << 62

func isProbe(id uint64) bool { return id>>62 == 1 }

func (r *recorder) Event(e pdm.Event) {
	if isProbe(e.Op) {
		return
	}
	if r.next != nil {
		r.next.Event(e)
	}
	r.events++
	if e.Kind == pdm.EventRead || e.Kind == pdm.EventWrite {
		r.blocks += int64(len(e.Addrs))
		r.steps += int64(e.Steps)
		if e.Depth > r.maxDepth {
			r.maxDepth = e.Depth
		}
		if e.Kind == pdm.EventRead {
			r.readBlks += int64(len(e.Addrs))
		}
	}
	if len(e.Ops) > 0 {
		// A merged round: every participant sees it.
		var copied *pdm.Event
		for _, id := range e.Ops {
			c, ok := schedClientOf(id)
			if !ok || c >= len(r.clients) || !r.clients[c].sampling {
				continue
			}
			if copied == nil {
				ev := copyEvent(e)
				copied = &ev
			}
			r.clients[c].events = append(r.clients[c].events, *copied)
		}
		return
	}
	c := 0
	if len(r.clients) > 1 {
		c = e.Client
		if sc, ok := schedClientOf(e.Op); ok {
			c = sc
		}
	}
	if c < len(r.clients) && r.clients[c].sampling {
		r.clients[c].events = append(r.clients[c].events, copyEvent(e))
	}
}

// sampleFold is what the clients' sampled calls add up to.
type sampleFold struct {
	self    []float64 // root minus counted children, per sampled call
	lookups []float64 // roots of the sampled lookups
	spans   []span
	// retained holds the events of the first retainedCalls sampled calls
	// of every client.
	retained      []pdm.Event
	retainedCalls int
	records, hits int
	rootNS        float64 // summed over the sampled calls
	childNS       float64
}

// fold merges the clients' traces once the pass is over.
func (r *recorder) fold() sampleFold {
	var f sampleFold
	for _, ct := range r.clients {
		f.lookups = append(f.lookups, ct.lookupNS...)
		f.retained = append(f.retained, ct.retained...)
		f.retainedCalls += ct.retainedCalls
		// Span IDs are per client; shift them to be unique in the file.
		base := len(f.spans)
		for _, sp := range ct.spans {
			sp.ID += base
			if sp.Parent != 0 {
				sp.Parent += base
			}
			f.spans = append(f.spans, sp)
		}
		f.records += ct.records
		f.hits += ct.hits
		for i := range ct.rootNS {
			f.self = append(f.self, ct.rootNS[i]-ct.childNS[i])
			f.rootNS += ct.rootNS[i]
			f.childNS += ct.childNS[i]
		}
	}
	return f
}

// tracer runs the out-of-line probes of sampled calls.
type tracer struct {
	rec    *recorder
	inst   *instance
	health pdm.HealthReport // at the start of the measured segments
	epoch  time.Time
	// replay is the machine reads are replayed on: the workload's own, or
	// a hook-less, injector-less twin's when the workload injects faults;
	// nil when the wrapper exposes no machine.
	replay *pdm.Machine
	graph  expander.Graph
	codec  bucket.Codec
}

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// measured drops what the warm-up tallied.
func (t *tracer) measured() {
	r := t.rec
	r.events, r.readBlks, r.blocks, r.steps, r.maxDepth = 0, 0, 0, 0, 0
	if t.inst.machine != nil {
		t.health = t.inst.machine.Health()
	}
}

// before arms capture for the client's next call when it is a sampled
// one.
func (t *tracer) before(c, index int) {
	ct := t.rec.clients[c]
	ct.sampling = index%sampleEvery == 0
	ct.events = ct.events[:0]
}

// after records the root span of a call and, for a sampled call, times
// the layer probes and records them as its children.
func (t *tracer) after(c, index int, ops []op, start time.Time, ns int64) {
	ct := t.rec.clients[c]
	if !ct.sampling {
		return
	}
	ct.sampling = false
	id := len(ct.spans) + 1
	rootStart := t.at(start)
	name := t.inst.root
	if name == "pdmdict.Dict" {
		name += [...]string{".Lookup", ".Insert", ".Delete"}[ops[0].kind]
	} else if ops[0].kind == opInsert {
		name = "pdmdict.Scheduled.InsertCtx"
	}
	ct.spans = append(ct.spans, span{ID: id, Op: index, Client: c, Name: name, StartNS: rootStart, EndNS: rootStart + ns, Counted: true})
	child := func(name string, counted bool, fn func()) int64 {
		s := now()
		fn()
		d := since(s)
		st := t.at(s)
		ct.spans = append(ct.spans, span{ID: len(ct.spans) + 1, Parent: id, Op: index, Client: c, Name: name, StartNS: st, EndNS: st + d, Counted: counted})
		if counted {
			return d
		}
		return 0
	}

	var children int64
	dst := make([]int, 0, degree)
	children += child("expander.Neighbors", true, func() {
		for i := range ops {
			ct.sink += len(t.graph.Neighbors(ops[i].key, dst[:0]))
		}
	})
	var blocks [][]pdm.Word
	if t.replay != nil {
		// A workload on the fault-aware path pays checksum verification
		// on every read, so its replay goes through the same fork.
		readName := "pdm.BatchRead"
		if t.inst.plan != nil {
			readName = "pdm.TryBatchRead"
		}
		children += child(readName, true, func() {
			for i := range ct.events {
				e := &ct.events[i]
				if e.Kind != pdm.EventRead {
					continue
				}
				var got [][]pdm.Word
				if t.inst.plan != nil {
					var err error
					if got, err = t.replay.TryBatchReadOp(ct.probeOp, e.Addrs); err != nil {
						continue // unreachable: the twin has no injector
					}
				} else {
					got = t.replay.BatchReadOp(ct.probeOp, e.Addrs)
				}
				for j, a := range e.Addrs {
					if a.Disk < t.inst.probe.bucketDisks {
						blocks = append(blocks, got[j])
					}
				}
			}
		})
		children += child("bucket.Decode", true, func() {
			for _, blk := range blocks {
				ct.records += len(t.codec.Decode(blk))
			}
		})
		child("bucket.Find", false, func() {
			for i, blk := range blocks {
				_, ok := t.codec.Find(blk, ops[i%len(ops)].key)
				ct.sink += b2i(ok)
			}
		})
	}
	if ct.chain != nil {
		children += child("obs.chain", true, func() {
			for i := range ct.events {
				ct.chain.Event(ct.events[i])
			}
		})
	}
	for i := range ops {
		if ops[i].want != 0 && ops[i].kind == opLookup {
			ct.hits++
		}
	}
	ct.rootNS = append(ct.rootNS, float64(ns))
	ct.childNS = append(ct.childNS, float64(children))
	if ops[0].kind == opLookup {
		ct.lookupNS = append(ct.lookupNS, float64(ns))
	}
	if len(ct.retained) < 4096 {
		ct.retained = append(ct.retained, ct.events...)
		ct.retainedCalls++
		// The retained events outlive the capture buffer's next reuse.
		ct.events = nil
	}
}

// callRate is keys per second of time spent inside public calls, the
// figure the tracing overhead compares.
func callRate(res passResult, clients int) float64 {
	var ns int64
	for _, s := range res.segs {
		ns += s.callNS
	}
	if ns == 0 {
		return 0
	}
	return float64(res.ops) / (float64(ns) / float64(clients) / 1e9)
}

// tracedRun is the traced pass of one workload: an untraced quarter-size
// pass for reference, the traced pass, the layer probes, and the trace
// file. It returns every per-layer metric.
func tracedRun(w *workload, seed uint64, short bool, seconds int, outDir string) (runResult, error) {
	size := w.sizing(short)
	clients := w.clients()
	unit := segments * clients * w.stride
	ops := opCount(w, size, seconds) / traceShare / unit * unit
	if ops < unit {
		ops = unit
	}
	total := ops + warmupCount(w, ops)
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = 0
	}

	// Reference: the same quarter-size pass with tracing off.
	inst, _, _, err := buildTimed(w, seed, size, total, 1)
	if err != nil {
		return runResult{}, err
	}
	plain := runPass(w, inst, ops, nil)
	out["host.gc_cycles"] = float64(plain.gc.cycles)
	out["host.gc_pause_ms"] = float64(plain.gc.pauseNS) / 1e6
	out["host.gc_cpu_share"] = plain.gc.cpuShare
	e2e := endToEndOf(plain)
	for _, m := range []string{"ops_per_s", "lookup_p50_us", "lookup_p99_us", "update_p50_us", "update_p99_us"} {
		out["host."+m] = e2e[m]
	}
	if n := inst.rebuilds(); n > 0 {
		out["core.dict.rebuilds"] = float64(n)
		out["core.dict.rebuild_share"] = stallShare(plain)
	}
	var directNS float64
	if s := inst.sched(); s != nil {
		directNS = directLookupNS(s, inst.streams[0])
	}
	inst = nil

	// Traced pass on a fresh build.
	inst, _, _, err = buildTimed(w, seed, size, total, 1)
	if err != nil {
		return runResult{}, err
	}
	tw, err := twin(inst.probe, seed)
	if err != nil {
		return runResult{}, err
	}
	rec := &recorder{clients: make([]*clientTrace, clients)}
	for c := range rec.clients {
		rec.clients[c] = &clientTrace{probeOp: pdm.MakeOp(probeOpBit|uint64(c), c, 1)}
		if inst.hookChain != nil {
			rec.clients[c].chain = inst.hookChain()
		}
	}
	tr := &tracer{
		rec: rec, inst: inst, epoch: now(), graph: tw.Graph(),
		codec: bucket.Codec{B: blockSize, SatWords: inst.probe.codecSat},
	}
	tr.replay = inst.machine
	if inst.plan != nil {
		twin, _, _, err := buildTimed(w, seed, size, total, 1)
		if err != nil {
			return runResult{}, err
		}
		twin.setHook(nil)
		twin.machine.SetFaultInjector(nil)
		tr.replay = twin.machine
	}
	if inst.hookChain != nil {
		rec.next = inst.hookChain()
	}
	inst.setHook(rec)
	traced := runPass(w, inst, ops, tr)
	keys := float64(ops)
	out["obs.events_per_op"] = float64(rec.events) / keys
	out["pdm.blocks_per_op"] = float64(rec.blocks) / keys
	out["pdm.steps_per_op"] = float64(rec.steps) / keys
	out["pdm.max_batch_depth"] = float64(rec.maxDepth)
	out["expander.calls_per_op"] = float64(rec.readBlks) / degree / keys
	out["pdm.space_amp"] = traced.spaceAmp
	if rate := callRate(plain, clients); rate > 0 {
		out["trace.overhead_ratio"] = callRate(traced, clients) / rate
	}
	if inst.machine != nil {
		h, h0 := inst.machine.Health(), tr.health
		out["pdm.retries_per_op"] = float64(h.Retries-h0.Retries) / keys
		out["pdm.hedges_per_op"] = float64(h.Hedges-h0.Hedges) / keys
		var hard int64
		for i, d := range h.Disks {
			hard += (d.Faults - d.Transients) - (h0.Disks[i].Faults - h0.Disks[i].Transients)
		}
		if rec.readBlks > 0 {
			out["pdm.fallback_share"] = float64(hard) / float64(rec.readBlks)
		}
	}

	f := rec.fold()
	if f.hits > 0 {
		out["bucket.records_examined_per_hit"] = float64(f.records) / float64(f.hits)
	}
	selfNS := median(f.self) / float64(w.stride)
	if selfNS < 0 {
		selfNS = 0
	}
	switch {
	case inst.sched() != nil:
		// Self time of a scheduled call is queueing, not core work.
		snap := inst.sched().Snapshot()
		if snap.Rounds > 0 {
			out["sched.coalesce_factor"] = float64(snap.Lookups) / float64(snap.Rounds)
			out["sched.window_occupancy"] = float64(snap.OccupancySum) / float64(snap.Rounds) / float64(clients)
		}
		if snap.Lookups > 0 {
			out["sched.dedup_share"] = float64(snap.RoundsSaved) / float64(snap.Lookups)
		}
		out["sched.steps_per_op"] = out["pdm.steps_per_op"]
		out["sched.overloaded"] = float64(snap.Overloads)
		if over := median(f.lookups) - directNS; over > 0 {
			out["sched.overhead_ns"] = over
		}
	case inst.basic() != nil:
		out["core.basic.self_ns"] = selfNS
	case inst.machine != nil:
		out["core.dynamic.self_ns"] = selfNS
	}
	if inst.hookChain != nil {
		nsPerOp, allocsPerOp := chainCost(inst.hookChain(), f.retained, f.retainedCalls)
		out["obs.chain_ns_per_op"], out["obs.chain_allocs_per_op"] = nsPerOp, allocsPerOp
	}
	consumerCosts(f.retained, out)

	// Healing: the workload's own failed disk when it has one.
	if inst.plan != nil {
		disk := inst.plan.FailedDisks()[0]
		inst.plan.HealDisk(disk)
		err = healProbe(inst.basic(), disk, out)
	} else {
		err = healFixtureProbe(seed, out)
	}
	if err != nil {
		return runResult{}, err
	}
	if err := layerProbes(seed, short, out); err != nil {
		return runResult{}, fmt.Errorf("%s: layer probes: %w", w.name, err)
	}
	if err := writeSpans(filepath.Join(outDir, "trace-"+w.name+".jsonl"), f.spans); err != nil {
		return runResult{}, err
	}
	res := runResult{
		Workload: w.name, Seed: seed, Seconds: seconds, Ops: ops,
		Attempted: plain.calls + traced.calls, Failed: plain.failed + traced.failed, PerLayer: out,
		SampledCalls: len(f.self), Spans: len(f.spans),
	}
	if f.rootNS > 0 {
		res.ChildCover = f.childNS / f.rootNS
	}
	return res, nil
}

// stallShare is the share of update time spent in calls longer than ten
// times the median update: the foreground cost of rebuild migration.
func stallShare(res passResult) float64 {
	var all []int64
	for _, s := range res.segs {
		all = append(all, s.updateNS...)
	}
	if len(all) == 0 {
		return 0
	}
	slices.Sort(all)
	limit := 10 * all[len(all)/2]
	var total, stalled int64
	for _, ns := range all {
		total += ns
		if ns > limit {
			stalled += ns
		}
	}
	return float64(stalled) / float64(total)
}

// directLookupNS is the median wall time of a direct lookup on the
// dictionary behind s, over the next lookups of a client's stream.
func directLookupNS(s *pdmdict.Scheduled, keys stream) float64 {
	buf := make([]op, 4096)
	keys.fill(buf)
	d := s.Unwrap()
	var ns []float64
	for _, o := range buf {
		if o.kind != opLookup {
			continue
		}
		t0 := now()
		_, found := d.Lookup(o.key)
		ns = append(ns, float64(since(t0)))
		sink += b2i(found)
	}
	return median(ns)
}

// chainCost feeds the events retained from calls sampled calls through a
// fresh hook chain, single-threaded, and returns the cost per call.
func chainCost(chain pdm.Hook, events []pdm.Event, calls int) (ns, allocs float64) {
	if calls == 0 {
		return 0, 0
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := now()
	for i := range events {
		chain.Event(events[i])
	}
	d := since(t0)
	runtime.ReadMemStats(&ms1)
	return float64(d) / float64(calls), float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
}

// consumerCosts feeds the captured stream to each obs consumer on its
// own and records ns and allocations per event.
func consumerCosts(events []pdm.Event, out map[string]float64) {
	if len(events) == 0 {
		return
	}
	folder := &obs.SpanFolder{}
	consumers := []struct {
		name string
		fn   func(pdm.Event)
	}{
		{"obs.collector", obs.NewCollector().Event},
		{"obs.accountant", obs.NewOpAccountant().Event},
		{"obs.monitor", obs.NewMonitor(nil, obs.DefaultRules()...).Event},
		{"obs.jsonl", obs.NewJSONLWriter(discard{}).Event},
		{"obs.ring", obs.NewRing(256).Event},
		{"obs.spanfolder", func(e pdm.Event) { sink += b2i(folder.Fold(e) != nil) }},
	}
	for _, c := range consumers {
		ns, allocs, _ := timeLoop(len(events), func(i int) { c.fn(events[i]) })
		out[c.name+"_ns"], out[c.name+"_allocs"] = ns, allocs
	}
}

// discard is io.Discard without its ReadFrom fast path, so the JSONL
// writer's buffer is exercised as a file would exercise it.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
