package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdmdict/internal/pdm"
)

// Cost model. The parallel disk model counts abstract parallel-I/O
// steps; to reason about a serving system we convert those counts into
// modeled time with a two-constant disk profile: every parallel I/O
// step pays one positioning (seek + rotational latency), and every
// block transferred pays one streaming transfer. Modeled latency is a
// pure function of the deterministic counters, so it is itself
// deterministic — unlike wall-clock durations, it can appear in traces
// and reports without breaking byte-identical reproducibility.
//
// The default profile is a 7200 rpm enterprise HDD:
//
//	positioning: ~5.8 ms average seek + 4.2 ms average rotational
//	             latency (half a revolution at 7200 rpm) ≈ 10 ms/step
//	transfer:    one model block treated as 256 KiB streamed at
//	             200 MB/s ≈ 1.31 ms/block
//
// These constants are documented in DESIGN.md §10; experiments that
// want an SSD or NVMe profile construct their own CostModel.

// CostModel converts parallel-I/O work into modeled time.
type CostModel struct {
	// StepCost is charged once per parallel I/O step (positioning).
	StepCost time.Duration
	// BlockCost is charged once per block transferred (streaming).
	BlockCost time.Duration
}

// DefaultCostModel is the documented 7200 rpm HDD profile.
var DefaultCostModel = CostModel{
	StepCost:  10 * time.Millisecond,
	BlockCost: 1310 * time.Microsecond,
}

// orDefault returns the model itself, or DefaultCostModel for the zero
// value, so zero-valued Collectors and folders work out of the box.
func (c CostModel) orDefault() CostModel {
	if c == (CostModel{}) {
		return DefaultCostModel
	}
	return c
}

// Latency returns the modeled duration of steps parallel I/O steps
// moving blocks blocks.
func (c CostModel) Latency(steps, blocks int64) time.Duration {
	c = c.orDefault()
	return time.Duration(steps)*c.StepCost + time.Duration(blocks)*c.BlockCost
}

// OpRecord is one reconstructed span: the I/O its own events charged,
// inclusive of nested child spans. Root spans (Parent == 0) are the
// per-operation records the paper's theorems bound — one Lookup,
// Insert, or Delete each.
type OpRecord struct {
	// ID and Parent identify the span; Parent 0 marks an operation.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Op, Client, and Keys carry the owning operation token when the
	// span was opened with one (0 otherwise): the op's machine-unique
	// ID, the issuing client, and — on root spans — how many keys the
	// operation covered.
	Op     uint64 `json:"op,omitempty"`
	Client int    `json:"client,omitempty"`
	Keys   int    `json:"keys,omitempty"`
	// Tag is the span's dot-joined path (e.g. "insert.probe").
	Tag string `json:"tag"`
	// BeginStep and EndStep are the machine's cumulative parallel-I/O
	// counter at the span boundaries. Steps is the span's parallel-I/O
	// cost: the sum of the step charges of the events attributed to it
	// (batches, fault.stall surcharges, and addr-less backoff charges).
	// Single-threaded it equals EndStep − BeginStep; under concurrency
	// the counter window also holds other operations' steps, and Steps
	// does not.
	BeginStep int64 `json:"begin_step"`
	EndStep   int64 `json:"end_step"`
	Steps     int64 `json:"steps"`
	// Batches, Blocks, Reads, and Writes count the batch events and
	// block transfers attributed to the span (children included).
	Batches int64 `json:"batches"`
	Blocks  int64 `json:"blocks"`
	Reads   int64 `json:"reads"`
	Writes  int64 `json:"writes"`
	// Faults counts the fault.* events seen inside the span.
	Faults int64 `json:"faults,omitempty"`
	// Latency is the modeled duration of the span under the folder's
	// cost model.
	Latency time.Duration `json:"latency_ns"`
	// WallNanos is the span's wall-clock duration when the machine had
	// an injected clock; 0 otherwise (and always 0 for records folded
	// from serialized traces, which exclude wall time by construction).
	WallNanos int64 `json:"wall_ns,omitempty"`
}

// SpanFolder reconstructs spans from an event stream: feed it every
// event (in emission order) and it returns one OpRecord per closed
// span. It is the one fold from events to per-operation records: a
// hook chain runs one, under a lock taken after the machine's emitMu
// and before any consumer's, and its Collector, OpAccountant and
// slo_burn rule share the records (see spanFold). It tolerates
// imperfect streams — an end without a begin is dropped, unclosed
// spans can be flushed with Drain — so it works on truncated traces
// and on the interleaved streams a shared machine produces under
// concurrency. Not safe for concurrent use.
type SpanFolder struct {
	// Cost is the model used for OpRecord.Latency; the zero value means
	// DefaultCostModel.
	Cost CostModel

	open map[uint64]*OpRecord
	// byOp maps an operation token to its open span IDs, outermost
	// first. Token-carrying batch events attribute through this list
	// rather than the span parent chain: the list is exact under
	// concurrency and survives an op whose spans straddle two machines
	// (where parent IDs cross counter domains).
	byOp map[uint64][]uint64

	// Closed records and emptied span lists are recycled through these
	// free lists, so a steady stream folds without allocating. last is
	// the record Fold returned, recycled at the next Fold.
	freeRecs  []*OpRecord
	freeSpans [][]uint64
	last      *OpRecord
}

// Fold consumes one event. It returns the completed record when e
// closes a span, and nil otherwise. The record is the folder's own and
// valid until the next call to Fold; copy it to keep it.
func (f *SpanFolder) Fold(e pdm.Event) *OpRecord {
	if f.last != nil {
		f.freeRecs = append(f.freeRecs, f.last)
		f.last = nil
	}
	if e.Kind.IsAnnotation() {
		return nil // health/alert transitions carry no span work
	}
	switch e.Kind {
	case pdm.EventSpanBegin:
		if f.open == nil {
			f.open = make(map[uint64]*OpRecord)
		}
		rec := pop(&f.freeRecs)
		if rec == nil {
			rec = new(OpRecord)
		}
		*rec = OpRecord{
			ID:        e.Span,
			Parent:    e.Parent,
			Op:        e.Op,
			Client:    e.Client,
			Keys:      e.Keys,
			Tag:       e.Tag,
			BeginStep: e.Step,
		}
		f.open[e.Span] = rec
		if e.Op != 0 {
			if f.byOp == nil {
				f.byOp = make(map[uint64][]uint64)
			}
			spans, ok := f.byOp[e.Op]
			if !ok {
				spans = pop(&f.freeSpans)
			}
			f.byOp[e.Op] = append(spans, e.Span)
		}
		return nil
	case pdm.EventSpanEnd:
		rec := f.open[e.Span]
		if rec == nil {
			return nil // end without begin (truncated stream)
		}
		delete(f.open, e.Span)
		f.forgetOpSpan(rec.Op, e.Span)
		f.close(rec, e.Step, e.WallNanos)
		f.last = rec
		return rec
	default:
		// A batch or fault event: attribute it to every span of its
		// owning op(s) when it carries a token — the exact path — and
		// otherwise walk the span parent chain, so parent records
		// include child I/O either way.
		attributed := false
		if e.Op != 0 {
			attributed = f.chargeOp(e.Op, e) || attributed
		}
		for _, id := range e.Ops {
			attributed = f.chargeOp(id, e) || attributed
		}
		if attributed {
			return nil
		}
		for id := e.Span; id != 0; {
			rec := f.open[id]
			if rec == nil {
				break
			}
			f.chargeRecord(rec, e)
			id = rec.Parent
		}
		return nil
	}
}

// chargeOp attributes one batch or fault event to every open span of
// the given op, reporting whether any span was charged.
func (f *SpanFolder) chargeOp(op uint64, e pdm.Event) bool {
	charged := false
	for _, id := range f.byOp[op] {
		if rec := f.open[id]; rec != nil {
			f.chargeRecord(rec, e)
			charged = true
		}
	}
	return charged
}

// chargeRecord rolls one batch or fault event into a span record.
func (f *SpanFolder) chargeRecord(rec *OpRecord, e pdm.Event) {
	rec.Steps += int64(e.Steps)
	if strings.HasPrefix(e.Tag, pdm.FaultTagPrefix) {
		// Fault events describe the batch they ride on; the batch
		// itself was already counted. Only a stall's extra steps are
		// charged, above.
		rec.Faults++
		return
	}
	rec.Batches++
	rec.Blocks += int64(len(e.Addrs))
	if e.Kind == pdm.EventWrite {
		rec.Writes += int64(len(e.Addrs))
	} else {
		rec.Reads += int64(len(e.Addrs))
	}
}

// forgetOpSpan drops a closed span from its op's open-span list.
func (f *SpanFolder) forgetOpSpan(op, span uint64) {
	if op == 0 {
		return
	}
	spans := f.byOp[op]
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i] == span {
			spans = append(spans[:i], spans[i+1:]...)
			break
		}
	}
	if len(spans) == 0 {
		delete(f.byOp, op)
		f.freeSpans = append(f.freeSpans, spans)
		return
	}
	f.byOp[op] = spans
}

// close finalizes a record at the given end step.
func (f *SpanFolder) close(rec *OpRecord, endStep, wallNanos int64) {
	rec.EndStep = endStep
	rec.WallNanos = wallNanos
	rec.Latency = f.Cost.Latency(rec.Steps, rec.Blocks)
}

// Open returns the number of spans currently open.
func (f *SpanFolder) Open() int { return len(f.open) }

// Drain closes every span still open — for truncated traces whose end
// events were lost — using the given final step counter, and returns
// the records ordered by span ID. The folder is empty afterwards.
func (f *SpanFolder) Drain(endStep int64) []OpRecord {
	out := make([]OpRecord, 0, len(f.open))
	for _, rec := range f.open {
		f.close(rec, endStep, 0)
		out = append(out, *rec)
	}
	f.open = nil
	f.byOp = nil
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FoldSpans reconstructs every closed span of a recorded event stream
// (Drain-ing any left open at the end) under the given cost model —
// the offline entry point used by pdmtrace -spans.
func FoldSpans(events []pdm.Event, cost CostModel) []OpRecord {
	f := SpanFolder{Cost: cost}
	var out []OpRecord
	var lastStep int64
	for _, e := range events {
		if e.Kind.IsSpan() && e.Step > lastStep {
			lastStep = e.Step
		}
		if rec := f.Fold(e); rec != nil {
			out = append(out, *rec)
		}
	}
	return append(out, f.Drain(lastStep)...)
}

// spanFold is a hook chain's one SpanFolder and its lock. Collector,
// OpAccountant, Monitor and Tee's hook each own one; composing joins a
// member's to the composer's, so only the element the machine calls
// folds each event, and its members observe the record with the lock
// held. Lock order: after the machine's emitMu, before consumer locks.
type spanFold struct {
	mu    sync.Mutex
	f     SpanFolder               // guarded by mu
	chain atomic.Pointer[spanFold] // the composer's fold, once joined
}

// root returns the outermost composer's fold, or s.
func (s *spanFold) root() *spanFold {
	for up := s.chain.Load(); up != nil; up = s.chain.Load() {
		s = up
	}
	return s
}

func (s *spanFold) event(e pdm.Event, h member) {
	s = s.root()
	s.mu.Lock()
	h.observe(e, s.f.Fold(e))
	s.mu.Unlock()
}

// member is a chain element: observe takes an event with the record
// it closed (nil if none; valid during the call), join ties its fold.
type member interface {
	observe(e pdm.Event, rec *OpRecord)
	join(chain *spanFold)
}

// adopt joins h to the chain folding through s; a hook that takes no
// records (Ring, JSONLWriter, HookFunc) gets the bare event.
func (s *spanFold) adopt(h pdm.Hook) member {
	if m, ok := h.(member); ok {
		m.join(s)
		return m
	}
	return bare{h}
}

type bare struct{ pdm.Hook }

func (b bare) observe(e pdm.Event, _ *OpRecord) { b.Event(e) }
func (bare) join(*spanFold)                     {}
