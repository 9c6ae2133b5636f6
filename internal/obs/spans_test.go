package obs

import (
	"strings"
	"testing"
	"time"

	"pdmdict/internal/pdm"
)

func TestCostModelLatency(t *testing.T) {
	if got := DefaultCostModel.Latency(2, 3); got != 2*10*time.Millisecond+3*1310*time.Microsecond {
		t.Errorf("default latency = %v", got)
	}
	// The zero model means the default, so zero-valued Collectors work.
	var zero CostModel
	if zero.Latency(1, 0) != DefaultCostModel.StepCost {
		t.Errorf("zero model latency = %v, want %v", zero.Latency(1, 0), DefaultCostModel.StepCost)
	}
	ssd := CostModel{StepCost: 100 * time.Microsecond, BlockCost: 10 * time.Microsecond}
	if got := ssd.Latency(1, 1); got != 110*time.Microsecond {
		t.Errorf("custom latency = %v", got)
	}
}

func TestSpanFolderReconstructsNestedOps(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 2, B: 2})
	var rec eventRecorder
	m.SetHook(&rec)

	end := m.Span(pdm.TagInsert)
	probe := m.Span(pdm.TagProbe)
	m.BatchRead([]pdm.Addr{{Disk: 0, Block: 0}, {Disk: 1, Block: 0}}) // 1 step, 2 blocks
	probe.End()
	m.BatchWrite([]pdm.BlockWrite{{Addr: pdm.Addr{Disk: 0, Block: 1}}}) // 1 step, 1 block
	end.End()

	recs := FoldSpans(rec.events, CostModel{})
	if len(recs) != 2 {
		t.Fatalf("folded %d records, want 2: %+v", len(recs), recs)
	}
	// Inner span closes first.
	inner, outer := recs[0], recs[1]
	if inner.Tag != "insert.probe" || inner.Parent != outer.ID {
		t.Errorf("inner = %+v", inner)
	}
	if inner.Steps != 1 || inner.Blocks != 2 || inner.Reads != 2 || inner.Writes != 0 {
		t.Errorf("inner I/O = %+v", inner)
	}
	if outer.Tag != "insert" || outer.Parent != 0 {
		t.Errorf("outer = %+v", outer)
	}
	// The outer span includes the inner span's I/O.
	if outer.Steps != 2 || outer.Blocks != 3 || outer.Reads != 2 || outer.Writes != 1 || outer.Batches != 2 {
		t.Errorf("outer I/O = %+v", outer)
	}
	if outer.Latency != DefaultCostModel.Latency(2, 3) {
		t.Errorf("outer latency = %v, want %v", outer.Latency, DefaultCostModel.Latency(2, 3))
	}
	if outer.BeginStep != 0 || outer.EndStep != 2 {
		t.Errorf("outer steps = [%d,%d], want [0,2]", outer.BeginStep, outer.EndStep)
	}
}

func TestSpanFolderCountsFaultsWithoutDoubleCharging(t *testing.T) {
	// Fault events ride on a batch that is already counted; the folder
	// must count them as faults, not as extra batches or blocks.
	events := []pdm.Event{
		{Kind: pdm.EventSpanBegin, Tag: "lookup", Span: 1, Step: 0},
		{Kind: pdm.EventRead, Tag: "lookup", Span: 1, Steps: 1, Addrs: []pdm.Addr{{Disk: 0}}},
		{Kind: pdm.EventRead, Tag: "fault.stall", Span: 1, Steps: 3, Addrs: []pdm.Addr{{Disk: 0}}},
		{Kind: pdm.EventSpanEnd, Tag: "lookup", Span: 1, Step: 4},
	}
	recs := FoldSpans(events, CostModel{})
	if len(recs) != 1 {
		t.Fatalf("folded %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Faults != 1 || r.Batches != 1 || r.Blocks != 1 {
		t.Errorf("record = %+v, want 1 fault, 1 batch, 1 block", r)
	}
	if r.Steps != 4 { // the batch's 1 step plus the 3 its fault.stall event charges
		t.Errorf("steps = %d, want 4", r.Steps)
	}
}

func TestSpanFolderDrainsTruncatedTraces(t *testing.T) {
	var f SpanFolder
	f.Fold(pdm.Event{Kind: pdm.EventSpanBegin, Tag: "insert", Span: 7, Step: 5})
	f.Fold(pdm.Event{Kind: pdm.EventRead, Span: 7, Steps: 1, Addrs: []pdm.Addr{{}}})
	// An end without a begin is dropped, not a crash.
	if rec := f.Fold(pdm.Event{Kind: pdm.EventSpanEnd, Span: 99, Step: 6}); rec != nil {
		t.Errorf("orphan end produced %+v", rec)
	}
	if f.Open() != 1 {
		t.Fatalf("open = %d, want 1", f.Open())
	}
	recs := f.Drain(9)
	if len(recs) != 1 || f.Open() != 0 {
		t.Fatalf("drained %d records, %d still open", len(recs), f.Open())
	}
	// The span's events charged 1 step. The counter window 5→9 would
	// say 4, but the other 3 steps were never attributed to the span,
	// so a record drained from a truncated trace carries only its own.
	if recs[0].Tag != "insert" || recs[0].Steps != 1 || recs[0].Blocks != 1 || recs[0].EndStep != 9 {
		t.Errorf("drained record = %+v", recs[0])
	}
}

func TestCollectorFoldsOpsFromSpans(t *testing.T) {
	c := NewCollector()
	m := pdm.NewMachine(pdm.Config{D: 2, B: 2})
	m.SetHook(c)

	for i := 0; i < 3; i++ {
		end := m.Span(pdm.TagLookup)
		inner := m.Span(pdm.TagProbe)
		m.BatchRead([]pdm.Addr{{Disk: 0, Block: i}})
		inner.End()
		end.End()
	}

	ops := c.Ops()
	// Only root spans aggregate: nested probe phases roll up into their
	// parent lookup, not a tag of their own.
	if len(ops) != 1 {
		t.Fatalf("ops = %+v, want only the root tag", ops)
	}
	agg := ops["lookup"]
	if agg == nil || agg.Count != 3 || agg.StepSum != 3 || agg.BlockSum != 3 {
		t.Fatalf("lookup agg = %+v", agg)
	}
	if agg.LatencySumNanos != int64(3*DefaultCostModel.Latency(1, 1)) {
		t.Errorf("latency sum = %d", agg.LatencySumNanos)
	}
	if agg.Steps.Total() != 3 || agg.LatencyMicros.Total() != 3 {
		t.Errorf("hist totals = %d/%d, want 3/3", agg.Steps.Total(), agg.LatencyMicros.Total())
	}
	if c.OpenSpans() != 0 {
		t.Errorf("open spans = %d, want 0", c.OpenSpans())
	}

	var sb strings.Builder
	c.RenderOps(&sb)
	if out := sb.String(); !strings.Contains(out, "lookup") || !strings.Contains(out, "avg latency") {
		t.Errorf("RenderOps output:\n%s", out)
	}

	// Span events must not inflate the batch counters.
	if events, reads, _, _, _ := c.Totals(); events != 3 || reads != 3 {
		t.Errorf("totals = %d events %d reads, want 3/3", events, reads)
	}
}

func TestCollectorCustomCostModel(t *testing.T) {
	c := NewCollector()
	c.Cost = CostModel{StepCost: time.Second, BlockCost: 0}
	m := pdm.NewMachine(pdm.Config{D: 1, B: 1})
	m.SetHook(c)
	end := m.Span(pdm.TagLookup)
	m.BatchRead([]pdm.Addr{{Disk: 0, Block: 0}})
	end.End()
	agg := c.Ops()["lookup"]
	if agg == nil || agg.LatencySumNanos != int64(time.Second) {
		t.Fatalf("agg = %+v, want 1s modeled latency", agg)
	}
}
