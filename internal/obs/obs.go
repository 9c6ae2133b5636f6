// Package obs is the observability layer for the parallel-disk
// simulator: sinks and metrics that plug into pdm.Machine's Hook.
//
// The package is deliberately zero-dependency (standard library only)
// and splits into three kinds of pieces:
//
//   - Sinks consume raw events: Ring keeps the last N events in memory,
//     and JSONLWriter streams them to a file for offline analysis
//     (ReadEvents and FoldSpans read them back).
//   - Hist is a log₂-bucketed histogram for long-tailed counts such as
//     parallel I/Os per operation; it is safe for concurrent use.
//   - Collector aggregates events into per-tag and per-disk totals plus
//     a depth histogram, and renders them as text tables.
//
// Hooks compose with Tee and NewMonitor, so a trace file and live
// metrics can be fed from the same machine simultaneously.
package obs

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"pdmdict/internal/pdm"
)

// Operation tag names for string-typed tag arguments (pdmdict's MintOp),
// spelled once, by pdm.Tag.
var (
	TagLookup = pdm.TagLookup.String()
	TagInsert = pdm.TagInsert.String()
	TagDelete = pdm.TagDelete.String()
)

// HookFunc adapts a function to the pdm.Hook interface.
type HookFunc func(pdm.Event)

// Event implements pdm.Hook.
func (f HookFunc) Event(e pdm.Event) { f(e) }

// Tee fans each event out to every hook in order. Nil entries are
// skipped, so optional sinks can be passed unconditionally. Members
// that take records (Collector, OpAccountant, Monitor, a Tee) share
// one fold of each event; the rest get the bare event.
func Tee(hooks ...pdm.Hook) pdm.Hook {
	t := &tee{}
	for _, h := range hooks {
		if h != nil {
			t.members = append(t.members, t.fold.adopt(h))
		}
	}
	return t
}

type tee struct {
	fold    spanFold
	members []member
}

func (t *tee) Event(e pdm.Event)    { t.fold.event(e, t) }
func (t *tee) join(chain *spanFold) { t.fold.chain.Store(chain) }
func (t *tee) observe(e pdm.Event, rec *OpRecord) {
	for _, m := range t.members {
		m.observe(e, rec)
	}
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// histBuckets covers values up to 2⁶³ plus a dedicated zero bucket.
const histBuckets = 65

// Hist is a log₂-bucketed histogram of non-negative counts. Bucket 0
// holds zeros; bucket i (i ≥ 1) holds values in [2^(i-1), 2^i). All
// methods are safe for concurrent use.
type Hist struct {
	counts [histBuckets]atomic.Int64
}

// Observe records one sample. Negative values are clamped to zero.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))].Add(1)
}

// Total returns the number of samples observed.
func (h *Hist) Total() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// HistBucket is one non-empty histogram bucket covering [Lo, Hi].
type HistBucket struct {
	Lo    int64 `json:"lo"` // inclusive value range
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Buckets returns the non-empty buckets in increasing value order.
func (h *Hist) Buckets() []HistBucket {
	var out []HistBucket
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		b := HistBucket{Count: c}
		if i > 0 {
			b.Lo = int64(1) << (i - 1)
			b.Hi = b.Lo<<1 - 1
		}
		out = append(out, b)
	}
	return out
}

// Quantile returns an upper bound for the q-quantile: the Hi edge of
// the log₂ bucket containing the sample of rank ⌊q·total⌋ (clamped to
// the last sample), i.e. 2^i − 1 for bucket i ≥ 1 and 0 for the zero
// bucket. The edge cases are pinned, so burn-rate and SLO math can rely
// on them:
//
//   - Empty histogram: 0 for every q — "no samples" reads as zero
//     latency, never a stale or negative sentinel.
//   - Single-bucket histogram: every q returns that one bucket's Hi
//     edge (0 when all samples are zeros) — quantiles of a degenerate
//     distribution are its only value.
//   - q outside [0,1] is clamped: q ≤ 0 is the minimum sample's bucket
//     edge, q ≥ 1 the maximum's.
func (h *Hist) Quantile(q float64) int64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > rank {
			if i == 0 {
				return 0
			}
			return int64(1)<<i - 1
		}
	}
	return 0
}

// Render writes the histogram as an aligned text table with a bar per
// bucket, e.g. for "parallel I/Os per lookup".
func (h *Hist) Render(sb *strings.Builder, title string) {
	total := h.Total()
	fmt.Fprintf(sb, "%s (n=%d)\n", title, total)
	if total == 0 {
		return
	}
	buckets := h.Buckets()
	max := int64(0)
	for _, b := range buckets {
		if b.Count > max {
			max = b.Count
		}
	}
	for _, b := range buckets {
		label := fmt.Sprintf("%d", b.Lo)
		if b.Hi != b.Lo {
			label = fmt.Sprintf("%d-%d", b.Lo, b.Hi)
		}
		bar := strings.Repeat("█", int(40*b.Count/max))
		if bar == "" {
			bar = "▏"
		}
		fmt.Fprintf(sb, "  %12s  %8d  %5.1f%%  %s\n",
			label, b.Count, 100*float64(b.Count)/float64(total), bar)
	}
}

// String renders the histogram without a title line's context.
func (h *Hist) String() string {
	var sb strings.Builder
	h.Render(&sb, "histogram")
	return sb.String()
}

// Summary is a compact, JSON-friendly digest of a histogram.
type Summary struct {
	Name    string       `json:"name"`
	Total   int64        `json:"total"`
	P50     int64        `json:"p50"`
	P99     int64        `json:"p99"`
	P999    int64        `json:"p999"`
	Max     int64        `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Summarize digests the histogram under the given name.
func (h *Hist) Summarize(name string) Summary {
	s := Summary{
		Name:    name,
		Total:   h.Total(),
		P50:     h.Quantile(0.50),
		P99:     h.Quantile(0.99),
		P999:    h.Quantile(0.999),
		Buckets: h.Buckets(),
	}
	if n := len(s.Buckets); n > 0 {
		s.Max = s.Buckets[n-1].Hi
	}
	return s
}
