package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"
)

func now() time.Time { return time.Now() }

func since(t time.Time) int64 { return int64(time.Since(t)) }

// median returns the median of vs (the mean of the middle two for an
// even count); it reorders vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// opCount is the number of keys a run of the given length measures:
// the frozen per-second rate times the seconds, rounded down to a whole
// number of calls per client per segment.
func opCount(w *workload, size sizing, seconds int) int {
	unit := segments * w.clients() * w.stride
	n := size.opsPerSecond * seconds / unit * unit
	if n < unit {
		n = unit
	}
	return n
}

// warmupCount is the untimed prefix, a whole number of calls per client.
func warmupCount(w *workload, ops int) int {
	unit := w.clients() * w.stride
	n := int(float64(ops)*warmupShare) / unit * unit
	if n < unit {
		n = unit
	}
	return n
}

// segStats is what one segment of a pass measured.
type segStats struct {
	ops      int
	wallNS   int64
	callNS   int64 // summed over clients
	lookupNS []int64
	updateNS []int64
	mallocs  uint64
	bytes    uint64
}

// passResult is what one pass over a workload measured.
type passResult struct {
	ops      int
	calls    int
	failed   int
	segs     []segStats
	ios      int64
	spaceAmp float64
	gc       gcStats
}

type gcStats struct {
	cycles   uint32
	pauseNS  uint64
	cpuShare float64
}

// callTracer observes the calls of a traced pass; untraced passes have
// none. measured is called once, between warm-up and the first measured
// segment; before and after run on the calling client's goroutine around
// each measured call.
type callTracer interface {
	measured()
	before(c, index int)
	after(c, index int, ops []op, start time.Time, ns int64)
}

// clientBuf is one client's reusable segment state. Each client owns its
// buffers for the length of a segment; the runner reads them only after
// the segment's WaitGroup has been waited on.
type clientBuf struct {
	ops      []op
	lookupNS []int64
	updateNS []int64
	callNS   int64
	failed   int
	index    int // calls issued so far, across segments
}

// runSegment fills every client's buffer from its stream, then runs the
// clients concurrently and returns the wall time from release to the
// last client's return.
func runSegment(inst *instance, stride int, bufs []*clientBuf, hook callTracer) int64 {
	for c, b := range bufs {
		inst.streams[c].fill(b.ops)
		b.lookupNS, b.updateNS = b.lookupNS[:0], b.updateNS[:0]
		b.callNS = 0
	}
	var wg sync.WaitGroup
	t0 := now()
	for c, b := range bufs {
		wg.Add(1)
		go func(c int, b *clientBuf) {
			defer wg.Done()
			for i := 0; i+stride <= len(b.ops); i += stride {
				ops := b.ops[i : i+stride]
				var start time.Time
				if hook != nil {
					hook.before(c, b.index)
					start = now()
				}
				ns, bad := inst.call(c, ops)
				if bad {
					b.failed++
				}
				b.callNS += ns
				if ops[0].kind == opLookup {
					b.lookupNS = append(b.lookupNS, ns)
				} else {
					b.updateNS = append(b.updateNS, ns)
				}
				if hook != nil {
					hook.after(c, b.index, ops, start, ns)
				}
				b.index++
			}
		}(c, b)
	}
	wg.Wait()
	return since(t0)
}

// runPass drives inst through warm-up and the measured segments.
func runPass(w *workload, inst *instance, ops int, hook callTracer) passResult {
	clients := w.clients()
	warm := warmupCount(w, ops)
	perSeg := ops / segments / clients
	bufs := make([]*clientBuf, clients)
	for c := range bufs {
		calls := perSeg / w.stride
		bufs[c] = &clientBuf{
			ops:      make([]op, perSeg),
			lookupNS: make([]int64, 0, calls),
			updateNS: make([]int64, 0, calls),
		}
	}
	res := passResult{ops: ops}
	for left := warm / clients; left > 0; {
		n := min(left, perSeg)
		left -= n
		warmBufs := make([]*clientBuf, clients)
		for c, b := range bufs {
			warmBufs[c] = &clientBuf{ops: b.ops[:n], lookupNS: b.lookupNS, updateNS: b.updateNS}
		}
		runSegment(inst, w.stride, warmBufs, nil)
		for _, b := range warmBufs {
			res.failed += b.failed
			res.calls += n / w.stride
		}
	}

	if hook != nil {
		hook.measured()
	}
	var ms0, ms1 runtime.MemStats
	gc0 := readGCCPU()
	ios0 := inst.dict.IOStats().ParallelIOs
	runtime.ReadMemStats(&ms0)
	first := ms0
	for s := 0; s < segments; s++ {
		wall := runSegment(inst, w.stride, bufs, hook)
		runtime.ReadMemStats(&ms1)
		seg := segStats{ops: perSeg * clients, wallNS: wall, mallocs: ms1.Mallocs - ms0.Mallocs, bytes: ms1.TotalAlloc - ms0.TotalAlloc}
		for _, b := range bufs {
			seg.callNS += b.callNS
			seg.lookupNS = append(seg.lookupNS, b.lookupNS...)
			seg.updateNS = append(seg.updateNS, b.updateNS...)
			res.calls += len(b.ops) / w.stride
		}
		res.segs = append(res.segs, seg)
		// Merging the samples allocates; start the next segment's
		// allocation count after it.
		runtime.ReadMemStats(&ms0)
	}
	res.ios = inst.dict.IOStats().ParallelIOs - ios0
	gc1 := readGCCPU()
	res.gc = gcStats{cycles: ms1.NumGC - first.NumGC, pauseNS: ms1.PauseTotalNs - first.PauseTotalNs}
	if total := gc1.total - gc0.total; total > 0 {
		res.gc.cpuShare = (gc1.gc - gc0.gc) / total
	}
	for _, b := range bufs {
		res.failed += b.failed
	}
	checked, failed := inst.finish()
	res.calls += checked
	res.failed += failed
	if inst.machine != nil {
		if live := inst.dict.Len(); live > 0 {
			res.spaceAmp = float64(inst.machine.TotalBlocks()*blockSize) / float64(live*(1+satWords))
		}
	}
	return res
}

type gcCPU struct{ gc, total float64 }

// readGCCPU samples the runtime's CPU-time classes.
func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out gcCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}

// percentiles returns the median and the highest percentile, at most
// the 99th, that still has ten samples beyond it. It sorts ns.
func percentiles(ns []int64) (p50, high float64) {
	if len(ns) == 0 {
		return 0, 0
	}
	slices.Sort(ns)
	hi := len(ns) * 99 / 100
	if lim := len(ns) - 11; hi > lim {
		hi = lim
	}
	if hi < len(ns)/2 {
		hi = len(ns) / 2
	}
	return float64(ns[len(ns)/2]), float64(ns[hi])
}

// latencyFold folds one kind of call's per-segment samples into its
// median and tail series: a median per segment, a tail percentile per
// pool of consecutive segments.
type latencyFold struct {
	p50, tail []float64
	pool      []int64
}

func (f *latencyFold) segment(ns []int64, closesPool bool) {
	if len(ns) > 0 {
		p50, _ := percentiles(ns)
		f.p50 = append(f.p50, p50/1e3)
	}
	f.pool = append(f.pool, ns...)
	if closesPool {
		if len(f.pool) > 0 {
			_, high := percentiles(f.pool)
			f.tail = append(f.tail, high/1e3)
		}
		f.pool = f.pool[:0]
	}
}

// endToEndOf folds a pass into the end-to-end metrics it has samples
// for. Timing metrics are medians over the segments (pools for tails).
func endToEndOf(res passResult) map[string]float64 {
	var rate []float64
	var mallocs, bytes uint64
	var lookups, updates latencyFold
	for i, s := range res.segs {
		rate = append(rate, float64(s.ops)/(float64(s.wallNS)/1e9))
		closesPool := (i+1)%(len(res.segs)/pools) == 0
		lookups.segment(s.lookupNS, closesPool)
		updates.segment(s.updateNS, closesPool)
		mallocs += s.mallocs
		bytes += s.bytes
	}
	out := map[string]float64{
		"ops_per_s":     median(rate),
		"allocs_per_op": float64(mallocs) / float64(res.ops),
		"bytes_per_op":  float64(bytes) / float64(res.ops),
		"ios_per_op":    float64(res.ios) / float64(res.ops),
		"failed_share":  float64(res.failed) / float64(res.calls),
	}
	if len(lookups.p50) > 0 {
		out["lookup_p50_us"], out["lookup_p99_us"] = median(lookups.p50), median(lookups.tail)
	}
	if len(updates.p50) > 0 {
		out["update_p50_us"], out["update_p99_us"] = median(updates.p50), median(updates.tail)
	}
	if res.spaceAmp > 0 {
		out["space_amp"] = res.spaceAmp
	}
	return out
}

// A run builds its dictionary at least setupRepeats times, and quick
// builds further times until setupBudget is spent or setupMax builds are
// done; setup_s is the median and the last build is the one measured.
const (
	setupRepeats = 3
	setupMax     = 9
	setupBudget  = 2e9 // ns
)

// buildTimed sets the workload up repeats times and returns the last
// instance with the median build time and the live heap after it.
func buildTimed(w *workload, seed uint64, size sizing, ops, repeats int) (*instance, float64, float64, error) {
	var inst *instance
	var secs []float64
	var spent int64
	for i := 0; i < repeats || (repeats > 1 && i < setupMax && spent < setupBudget); i++ {
		inst = nil
		runtime.GC()
		t0 := now()
		var err error
		inst, err = w.setup(seed, size, w.clients(), ops)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		d := since(t0)
		spent += d
		secs = append(secs, float64(d)/1e9)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return inst, median(secs), float64(ms.HeapAlloc) / (1 << 20), nil
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Ops       int                `json:"ops"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Samples is the smallest number of lookup samples pooled behind a
	// tail percentile.
	Samples int `json:"samples,omitempty"`
	// Rebuilds is the number of global rebuilds the dictionary
	// completed, where it has them.
	Rebuilds int64 `json:"rebuilds,omitempty"`
	// SampledCalls, Spans and ChildCover describe a traced pass: how many
	// calls got child spans, how many spans were written, and the share
	// of the sampled root spans' time their counted children cover.
	SampledCalls int     `json:"sampled_calls,omitempty"`
	Spans        int     `json:"spans,omitempty"`
	ChildCover   float64 `json:"child_cover,omitempty"`
}

// measure is the untraced pass: it builds the workload (setups times at
// least, for the setup_s median), drives it unpaced and returns the
// end-to-end metrics.
func measure(w *workload, seed uint64, size sizing, seconds, setups int) (runResult, error) {
	ops := opCount(w, size, seconds)
	inst, setupS, heapMB, err := buildTimed(w, seed, size, ops+warmupCount(w, ops), setups)
	if err != nil {
		return runResult{}, err
	}
	res := runPass(w, inst, ops, nil)
	e2e := endToEndOf(res)
	e2e["setup_s"] = setupS
	e2e["heap_live_mb"] = heapMB
	out := runResult{
		Workload: w.name, Seed: seed, Seconds: seconds, Ops: ops,
		Attempted: res.calls, Failed: res.failed, EndToEnd: e2e,
	}
	for i, s := range res.segs {
		if n := len(s.lookupNS) * (segments / pools); i == 0 || n < out.Samples {
			out.Samples = n
		}
	}
	out.Rebuilds = inst.rebuilds()
	return out, nil
}
