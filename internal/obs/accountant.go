package obs

import (
	"sort"
	"sync"

	"pdmdict/internal/pdm"
)

// OpCtx is the operation token the public API threads through the
// dictionaries into pdm.Machine: the machine-unique op (carrying its ID,
// issuing client, and key count) plus the name of the operation's root
// tag. Public entry points mint one OpCtx per logical operation; every
// batch, fault, and span event the operation causes is stamped with the
// token, which is what makes per-operation accounting exact under
// concurrency.
type OpCtx struct {
	// Op is the token itself; nil falls back to unattributed operation.
	Op *pdm.Op
	// Tag names the operation's root span tag (TagLookup, TagInsert,
	// ...).
	Tag string
}

// FlightRecord is one completed operation retained by the accountant's
// flight recorder: the exact per-op record plus (a bounded prefix of)
// the events that produced it.
type FlightRecord struct {
	OpRecord
	// Events are the operation's own batch, fault, and span events in
	// emission order, truncated to the recorder's per-op cap.
	Events []pdm.Event `json:"events,omitempty"`
	// Dropped counts events beyond the cap that were not retained.
	Dropped int `json:"dropped_events,omitempty"`
	// OverBudget marks an op retained because it exceeded StepBudget.
	OverBudget bool `json:"over_budget,omitempty"`
}

// liveOp is one operation whose events are being retained, then its
// completed record in the flight recorder. It owns its events slice and
// the arenas the retained events' Addrs and Ops sub-slice, and is
// recycled through the accountant's free list once its op is dropped or
// its recorder slot overwritten.
type liveOp struct {
	rec   FlightRecord
	span  uint64 // root span ID: the op's open record in the chain's fold
	addrs []pdm.Addr
	ops   []uint64
}

// OpAccountant keeps the exact per-operation records of token-carrying
// operations, online. Its chain's SpanFolder builds each record from
// the op's own event charges, through operation tokens, so the
// accounting is exact under arbitrary concurrency — including merged
// batches, which charge every op on their attribution list. On top it
// maintains per-client and per-tag SLO aggregates of modeled latency,
// the exact batch-inclusive worst-op figure (amortized per key), and a
// sampled always-on flight recorder: a ring of the last RecorderSize
// retained operations with their event slices, dumpable on demand;
// operations exceeding StepBudget are always retained.
//
// OpAccountant implements pdm.Hook and is safe for concurrent use; all
// accessors iterate in sorted order, so rendering its state is
// byte-deterministic for deterministic workloads.
type OpAccountant struct {
	// Cost converts per-op step/block counts into modeled latency. The
	// zero value means DefaultCostModel. Set before the first event.
	Cost CostModel
	// SampleEvery retains every Nth completed op in the flight recorder
	// (1 = every op; 0 means the NewOpAccountant default of 1).
	SampleEvery uint64
	// StepBudget, when positive, marks any op whose exact steps exceed
	// it: the op is retained in the recorder regardless of sampling and
	// counted in BudgetExceeded.
	StepBudget int64
	// RecorderSize bounds the flight-recorder ring (0 = default 128).
	RecorderSize int
	// MaxEvents bounds the events retained per recorded op (0 = default
	// 64); further events are counted in Dropped, not retained.
	MaxEvents int

	mu       sync.Mutex
	fold     spanFold           // builds each op's record
	inflight map[uint64]*liveOp // token ID -> the open root op's retained events
	byClient map[int]*OpAgg
	byTag    map[string]*OpAgg

	ops, steps, blocks, faults int64
	worst                      int64 // max per-key amortized steps over completed ops
	budgetExceeded             int64

	ring     []*liveOp
	ringNext int
	recorded int64     // lifetime records pushed into the ring
	free     []*liveOp // recycled liveOps, buffers kept
}

// NewOpAccountant returns an accountant with default sampling (every
// completed op) and recorder bounds.
func NewOpAccountant() *OpAccountant {
	return &OpAccountant{SampleEvery: 1, RecorderSize: 128, MaxEvents: 64}
}

// Event implements pdm.Hook.
func (a *OpAccountant) Event(e pdm.Event)    { a.fold.event(e, a) }
func (a *OpAccountant) join(chain *spanFold) { a.fold.chain.Store(chain) }

// observe retains an op's events and completes it, priced with a.Cost,
// when rec closes its root span. Annotations carry no op.
func (a *OpAccountant) observe(e pdm.Event, rec *OpRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e.Kind == pdm.EventSpanBegin && e.Op != 0 && e.Parent == 0 {
		if a.inflight == nil {
			a.inflight = make(map[uint64]*liveOp)
		}
		lo := a.take()
		lo.span = e.Span
		a.inflight[e.Op] = lo
	}
	lo := a.inflight[e.Op] // nil for op 0 and for an op begun before the hook attached
	if lo != nil {
		a.retainFor(lo, e)
	}
	for _, id := range e.Ops {
		if shared := a.inflight[id]; shared != nil {
			a.retainFor(shared, e)
		}
	}
	if lo != nil && rec != nil && rec.Parent == 0 {
		delete(a.inflight, e.Op)
		lo.rec.OpRecord = *rec
		lo.rec.Latency = a.Cost.Latency(rec.Steps, rec.Blocks)
		a.complete(lo)
	}
}

// retainFor appends a copy of e to an op's retained events, up to the
// per-op cap. The copy's Addrs and Ops live in the op's arenas.
func (a *OpAccountant) retainFor(lo *liveOp, e pdm.Event) {
	max := a.MaxEvents
	if max == 0 {
		max = 64
	}
	if len(lo.rec.Events) >= max {
		lo.rec.Dropped++
		return
	}
	e.Addrs = own(&lo.addrs, e.Addrs)
	e.Ops = own(&lo.ops, e.Ops)
	lo.rec.Events = append(lo.rec.Events, e)
}

// own appends s to the arena and returns the copy, capped so appends to
// it cannot reach later entries; an empty s yields nil. An arena that
// grows leaves earlier copies on the old array, which stays intact.
func own[T any](arena *[]T, s []T) []T {
	if len(s) == 0 {
		return nil
	}
	start := len(*arena)
	*arena = append(*arena, s...)
	return (*arena)[start:len(*arena):len(*arena)]
}

// pop removes and returns the last entry of a free list, or the zero
// value when the list is empty.
func pop[T any](free *[]T) (v T) {
	if n := len(*free); n > 0 {
		v = (*free)[n-1]
		*free = (*free)[:n-1]
	}
	return v
}

// take returns a reset liveOp from the free list, or a new one.
func (a *OpAccountant) take() *liveOp {
	lo := pop(&a.free)
	if lo == nil {
		return new(liveOp)
	}
	lo.rec = FlightRecord{Events: lo.rec.Events[:0]}
	lo.addrs, lo.ops = lo.addrs[:0], lo.ops[:0]
	return lo
}

// complete rolls an op's finished record into the aggregates and the
// flight recorder.
func (a *OpAccountant) complete(lo *liveOp) {
	rec := &lo.rec.OpRecord
	a.ops++
	a.steps += rec.Steps
	a.blocks += rec.Blocks
	a.faults += rec.Faults
	keys := int64(rec.Keys)
	if keys < 1 {
		keys = 1
	}
	perKey := (rec.Steps + keys - 1) / keys
	if perKey > a.worst {
		a.worst = perKey
	}

	aggFor(&a.byClient, rec.Client).add(rec, rec.Latency)
	aggFor(&a.byTag, rec.Tag).add(rec, rec.Latency)

	every := a.SampleEvery
	if every == 0 {
		every = 1
	}
	over := a.StepBudget > 0 && rec.Steps > a.StepBudget
	if over {
		a.budgetExceeded++
	}
	if rec.Op%every != 0 && !over {
		a.free = append(a.free, lo)
		return
	}
	lo.rec.OverBudget = over
	size := a.RecorderSize
	if size == 0 {
		size = 128
	}
	if a.ring == nil {
		a.ring = make([]*liveOp, 0, size)
	}
	if len(a.ring) < cap(a.ring) {
		a.ring = append(a.ring, lo)
	} else {
		a.free = append(a.free, a.ring[a.ringNext])
		a.ring[a.ringNext] = lo
	}
	a.ringNext = (a.ringNext + 1) % cap(a.ring)
	a.recorded++
}

// Totals returns the completed-op totals: operations, exact steps,
// blocks, and faults charged across them.
func (a *OpAccountant) Totals() (ops, steps, blocks, faults int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ops, a.steps, a.blocks, a.faults
}

// WorstOp returns the exact worst per-operation parallel I/O cost seen,
// batch operations included and amortized per key (⌈steps/keys⌉).
func (a *OpAccountant) WorstOp() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.worst
}

// BudgetExceeded returns how many completed ops exceeded StepBudget.
func (a *OpAccountant) BudgetExceeded() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budgetExceeded
}

// InFlightCount returns how many token-carrying ops are currently open.
func (a *OpAccountant) InFlightCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.inflight)
}

// InFlight returns snapshots of the in-flight ops, heaviest first (by
// steps charged so far, ties broken by op ID), truncated to k (k <= 0 =
// all).
func (a *OpAccountant) InFlight(k int) []OpRecord {
	f := a.fold.root()
	f.mu.Lock()
	a.mu.Lock()
	out := make([]OpRecord, 0, len(a.inflight))
	for _, lo := range a.inflight {
		if rec := f.f.open[lo.span]; rec != nil {
			out = append(out, *rec)
		}
	}
	a.mu.Unlock()
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Steps != out[j].Steps {
			return out[i].Steps > out[j].Steps
		}
		return out[i].Op < out[j].Op
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Recorded returns deep copies of the flight recorder's retained
// records, oldest first, and the lifetime count of records pushed
// (including ones the ring has since overwritten).
func (a *OpAccountant) Recorded() ([]FlightRecord, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]FlightRecord, 0, len(a.ring))
	for i := range a.ring {
		// Oldest first: from ringNext to the end (empty until the ring
		// wraps), then the start.
		fr := a.ring[(a.ringNext+i)%len(a.ring)].rec
		events := fr.Events
		fr.Events = nil
		for _, e := range events {
			fr.Events = append(fr.Events, cloneEvent(e))
		}
		out = append(out, fr)
	}
	return out, a.recorded
}

// recordedTotal returns the lifetime count of records pushed into the
// flight recorder, without copying them.
func (a *OpAccountant) recordedTotal() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recorded
}

// Clients returns the per-client SLO aggregates; the map is fresh but
// shares histogram pointers (safe for concurrent use).
func (a *OpAccountant) Clients() map[int]*OpAgg {
	a.mu.Lock()
	defer a.mu.Unlock()
	return copyAggs(a.byClient)
}

// Tags returns the per-tag SLO aggregates, keyed by root span tag.
func (a *OpAccountant) Tags() map[string]*OpAgg {
	a.mu.Lock()
	defer a.mu.Unlock()
	return copyAggs(a.byTag)
}
