package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"pdmdict/internal/pdm"
)

// TagStats accumulates I/O attributed to one span tag.
type TagStats struct {
	Batches int64 `json:"batches"`
	Steps   int64 `json:"steps"`  // parallel I/O steps
	Blocks  int64 `json:"blocks"` // block transfers
}

// Window is a per-disk transfer tally over a fixed span of parallel
// I/O steps, for watching skew evolve over time.
type Window struct {
	StartStep int64   `json:"start_step"` // cumulative step count at window open
	EndStep   int64   `json:"end_step"`
	PerDisk   []int64 `json:"per_disk"`
}

// OpAgg aggregates the completed operations (root spans) of one tag:
// counts, parallel-I/O-step and modeled-latency histograms, and exact
// sums for the /metrics histograms' _sum series.
type OpAgg struct {
	Count           int64 `json:"count"`
	StepSum         int64 `json:"step_sum"`
	BlockSum        int64 `json:"block_sum"`
	FaultSum        int64 `json:"fault_sum"`
	LatencySumNanos int64 `json:"latency_sum_ns"`
	WallSumNanos    int64 `json:"wall_sum_ns"`
	Steps           *Hist `json:"-"` // steps per operation
	LatencyMicros   *Hist `json:"-"` // modeled latency per operation, µs
}

// aggFor returns (creating it, and the map, if needed) the aggregate
// for one map key.
func aggFor[K comparable](m *map[K]*OpAgg, k K) *OpAgg {
	if *m == nil {
		*m = map[K]*OpAgg{}
	}
	agg := (*m)[k]
	if agg == nil {
		agg = &OpAgg{Steps: &Hist{}, LatencyMicros: &Hist{}}
		(*m)[k] = agg
	}
	return agg
}

// copyAggs returns a fresh map of copied aggregates; the copies share
// the histogram pointers, which are safe for concurrent use.
func copyAggs[K comparable](m map[K]*OpAgg) map[K]*OpAgg {
	out := make(map[K]*OpAgg, len(m))
	for k, v := range m {
		cp := *v
		out[k] = &cp
	}
	return out
}

// add rolls one completed operation's record, priced at lat, into the
// aggregate.
func (agg *OpAgg) add(rec *OpRecord, lat time.Duration) {
	agg.Count++
	agg.StepSum += rec.Steps
	agg.BlockSum += rec.Blocks
	agg.FaultSum += rec.Faults
	agg.LatencySumNanos += int64(lat)
	agg.WallSumNanos += rec.WallNanos
	agg.Steps.Observe(rec.Steps)
	agg.LatencyMicros.Observe(lat.Microseconds())
}

// Collector aggregates hook events into metrics: global counters, a
// depth histogram, per-tag totals, per-disk transfer tallies both
// lifetime and over recent step windows, and — from its chain's span
// fold — per-operation records aggregated into per-tag step/latency
// histograms. It implements pdm.Hook and is safe for concurrent use.
type Collector struct {
	// WindowSteps is how many parallel I/O steps one skew window spans;
	// MaxWindows bounds how many closed windows are retained. Both must
	// be set before the first event (NewCollector picks defaults).
	WindowSteps int64
	MaxWindows  int

	// Cost converts per-operation step/block counts into the modeled
	// latency behind Ops and the /metrics latency histograms. The zero
	// value means DefaultCostModel. Set before the first event.
	Cost CostModel

	Depth Hist // batch depth (= parallel I/O steps per batch)

	mu       sync.Mutex
	events   int64
	reads    int64 // read batches
	writes   int64 // write batches
	steps    int64 // cumulative parallel I/O steps
	blocks   int64 // cumulative block transfers
	depthSum int64 // sum of per-batch depths (for the /metrics histogram's _sum)
	tags     map[string]*TagStats
	perDisk  []int64 // lifetime, grown on demand
	cur      Window  // open window
	windows  []Window
	fold     spanFold          // reconstructs operations from span events
	ops      map[string]*OpAgg // per-tag aggregates over root spans
}

// NewCollector returns a collector with default windowing (1024 steps
// per window, 64 windows retained).
func NewCollector() *Collector {
	return &Collector{
		WindowSteps: 1024,
		MaxWindows:  64,
		tags:        map[string]*TagStats{},
	}
}

// Event implements pdm.Hook.
func (c *Collector) Event(e pdm.Event)    { c.fold.event(e, c) }
func (c *Collector) join(chain *spanFold) { c.fold.chain.Store(chain) }

// observe rolls a closed root span (one operation) into the per-tag
// aggregates, priced with c.Cost, and a batch into the I/O counters.
func (c *Collector) observe(e pdm.Event, rec *OpRecord) {
	if rec != nil && rec.Parent == 0 {
		c.mu.Lock()
		aggFor(&c.ops, rec.Tag).add(rec, c.Cost.Latency(rec.Steps, rec.Blocks))
		c.mu.Unlock()
	}
	if e.Kind.IsSpan() || e.Kind.IsAnnotation() {
		return // no I/O to aggregate
	}
	c.Depth.Observe(int64(e.Depth))
	c.mu.Lock()
	c.events++
	if e.Kind == pdm.EventWrite {
		c.writes++
	} else {
		c.reads++
	}
	c.steps += int64(e.Steps)
	c.blocks += int64(len(e.Addrs))
	c.depthSum += int64(e.Depth)

	tag := e.Tag
	if tag == "" {
		tag = "(untagged)"
	}
	if c.tags == nil {
		c.tags = map[string]*TagStats{}
	}
	ts := c.tags[tag]
	if ts == nil {
		ts = &TagStats{}
		c.tags[tag] = ts
	}
	ts.Batches++
	ts.Steps += int64(e.Steps)
	ts.Blocks += int64(len(e.Addrs))

	for _, a := range e.Addrs {
		for a.Disk >= len(c.perDisk) {
			c.perDisk = append(c.perDisk, 0)
			c.cur.PerDisk = append(c.cur.PerDisk, 0)
		}
		c.perDisk[a.Disk]++
		c.cur.PerDisk[a.Disk]++
	}
	if c.steps-c.cur.StartStep >= c.WindowSteps {
		c.cur.EndStep = c.steps
		c.windows = append(c.windows, c.cur)
		// The evicted window's tallies become the new window's, so a
		// full history rolls without allocating.
		var perDisk []int64
		if over := len(c.windows) - c.MaxWindows; over > 0 {
			perDisk = c.windows[0].PerDisk
			c.windows = c.windows[:copy(c.windows, c.windows[over:])]
		}
		if cap(perDisk) < len(c.perDisk) {
			perDisk = make([]int64, len(c.perDisk))
		}
		perDisk = perDisk[:len(c.perDisk)]
		clear(perDisk)
		c.cur = Window{StartStep: c.steps, PerDisk: perDisk}
	}
	c.mu.Unlock()
}

// Ops returns the per-tag operation aggregates (root spans only). The
// returned map is fresh but shares the histogram pointers, which are
// safe for concurrent use.
func (c *Collector) Ops() map[string]*OpAgg {
	c.mu.Lock()
	defer c.mu.Unlock()
	return copyAggs(c.ops)
}

// OpenSpans returns how many spans are currently open — a liveness
// diagnostic (a steadily growing value means unbalanced Span calls).
func (c *Collector) OpenSpans() int {
	f := c.fold.root()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.f.Open()
}

// DepthSum returns the sum of every observed batch depth — the exact
// _sum companion to the Depth histogram.
func (c *Collector) DepthSum() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.depthSum
}

// Tags returns a copy of the per-tag totals.
func (c *Collector) Tags() map[string]TagStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]TagStats, len(c.tags))
	for k, v := range c.tags {
		out[k] = *v
	}
	return out
}

// PerDisk returns the lifetime block-transfer tally per disk.
func (c *Collector) PerDisk() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.perDisk...)
}

// Windows returns the retained closed skew windows, oldest first.
func (c *Collector) Windows() []Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Window, len(c.windows))
	for i, w := range c.windows {
		w.PerDisk = append([]int64(nil), w.PerDisk...)
		out[i] = w
	}
	return out
}

// Totals returns (batches, reads, writes, steps, blocks).
func (c *Collector) Totals() (events, reads, writes, steps, blocks int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events, c.reads, c.writes, c.steps, c.blocks
}

// RenderTags writes an aligned per-tag I/O breakdown, heaviest first.
func (c *Collector) RenderTags(sb *strings.Builder) {
	tags := c.Tags()
	names := sortedKeys(tags)
	slices.SortStableFunc(names, func(a, b string) int { return cmp.Compare(tags[b].Steps, tags[a].Steps) })
	_, _, _, steps, _ := c.Totals()
	fmt.Fprintf(sb, "%-24s %10s %10s %10s %7s\n", "tag", "batches", "pIOs", "blocks", "share")
	for _, name := range names {
		t := tags[name]
		share := 0.0
		if steps > 0 {
			share = 100 * float64(t.Steps) / float64(steps)
		}
		fmt.Fprintf(sb, "%-24s %10d %10d %10d %6.1f%%\n",
			name, t.Batches, t.Steps, t.Blocks, share)
	}
}

// RenderOps writes an aligned per-operation summary: for each tag with
// completed root spans, the operation count, average and p99 parallel
// I/O steps, and average modeled latency.
func (c *Collector) RenderOps(sb *strings.Builder) {
	ops := c.Ops()
	names := sortedKeys(ops)
	fmt.Fprintf(sb, "%-24s %10s %10s %8s %12s\n", "op", "count", "avg pIOs", "p99", "avg latency")
	for _, name := range names {
		a := ops[name]
		if a.Count == 0 {
			continue
		}
		fmt.Fprintf(sb, "%-24s %10d %10.3f %8d %12s\n",
			name, a.Count,
			float64(a.StepSum)/float64(a.Count),
			a.Steps.Quantile(0.99),
			(time.Duration(a.LatencySumNanos) / time.Duration(a.Count)).Round(time.Microsecond))
	}
}

// RenderPerDisk writes the lifetime per-disk transfer tallies with a
// skew figure (max/mean; 1.00 = perfectly balanced).
func (c *Collector) RenderPerDisk(sb *strings.Builder) {
	perDisk := c.PerDisk()
	var total, max int64
	for _, v := range perDisk {
		total += v
		if v > max {
			max = v
		}
	}
	fmt.Fprintf(sb, "%-6s %12s %7s\n", "disk", "blocks", "share")
	for d, v := range perDisk {
		share := 0.0
		if total > 0 {
			share = 100 * float64(v) / float64(total)
		}
		fmt.Fprintf(sb, "%-6d %12d %6.1f%%\n", d, v, share)
	}
	if total > 0 && len(perDisk) > 0 {
		mean := float64(total) / float64(len(perDisk))
		fmt.Fprintf(sb, "skew (max/mean): %.2f\n", float64(max)/mean)
	}
}

// String renders the full collector state as text.
func (c *Collector) String() string {
	var sb strings.Builder
	events, reads, writes, steps, blocks := c.Totals()
	fmt.Fprintf(&sb, "batches=%d (reads=%d writes=%d) pIOs=%d blocks=%d\n",
		events, reads, writes, steps, blocks)
	c.RenderTags(&sb)
	c.RenderPerDisk(&sb)
	return sb.String()
}
