package pdm

import (
	"sync"
	"testing"
)

// TestOpSpanPrivateStacks is the regression test for the shared-span-
// stack misattribution bug: before operation tokens, a span opened by
// one client while another client's span was open parented onto the
// *other* client's span (the machine kept one global stack). With
// tokens each op carries a private stack, so interleaved spans parent
// onto their own operation — deterministically reproducible on a single
// goroutine by interleaving two ops' spans by hand.
func TestOpSpanPrivateStacks(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 2})
	h := &recordingHook{}
	m.SetHook(h)

	opA := m.NewOp(1, 1)
	opB := m.NewOp(2, 1)

	endA := m.OpSpan(opA, TagLookup)   // A root
	endB := m.OpSpan(opB, TagInsert)   // B root — interleaved
	endA2 := m.OpSpan(opA, TagProbe)   // must parent onto A's root, not B's
	endB2 := m.OpSpan(opB, TagRebuild) // must parent onto B's root, not A's probe
	endA2.End()
	endB2.End()
	endA.End()
	endB.End()

	evs := h.all()
	begins := map[string]Event{} // tag path -> begin event
	for _, e := range evs {
		if e.Kind == EventSpanBegin {
			begins[e.Tag] = e
		}
	}
	rootA, okA := begins["lookup"]
	rootB, okB := begins["insert"]
	if !okA || !okB {
		t.Fatalf("missing root begins; got %v", begins)
	}
	if rootA.Parent != 0 || rootB.Parent != 0 {
		t.Fatalf("roots must have parent 0: A=%d B=%d", rootA.Parent, rootB.Parent)
	}
	if rootA.Op != opA.ID() || rootA.Client != 1 || rootB.Op != opB.ID() || rootB.Client != 2 {
		t.Fatalf("root token stamps wrong: A=%+v B=%+v", rootA, rootB)
	}
	childA, ok := begins["lookup.probe"]
	if !ok {
		t.Fatalf("A's nested span path != lookup.probe; got %v", begins)
	}
	if childA.Parent != rootA.Span {
		t.Errorf("A's nested span parent = %d, want A's root %d (not B's %d)",
			childA.Parent, rootA.Span, rootB.Span)
	}
	childB, ok := begins["insert.rebuild"]
	if !ok {
		t.Fatalf("B's nested span path != insert.rebuild; got %v", begins)
	}
	if childB.Parent != rootB.Span {
		t.Errorf("B's nested span parent = %d, want B's root %d (not A's child %d)",
			childB.Parent, rootB.Span, childA.Span)
	}
	// End events close exactly the span their OpSpan call opened, in the
	// interleaved order, each stamped with its own op.
	var ends []Event
	for _, e := range evs {
		if e.Kind == EventSpanEnd {
			ends = append(ends, e)
		}
	}
	wantEnds := []struct {
		span uint64
		op   uint64
	}{
		{childA.Span, opA.ID()},
		{childB.Span, opB.ID()},
		{rootA.Span, opA.ID()},
		{rootB.Span, opB.ID()},
	}
	if len(ends) != len(wantEnds) {
		t.Fatalf("got %d end events, want %d", len(ends), len(wantEnds))
	}
	for i, w := range wantEnds {
		if ends[i].Span != w.span || ends[i].Op != w.op {
			t.Errorf("end[%d] = span %d op %d, want span %d op %d",
				i, ends[i].Span, ends[i].Op, w.span, w.op)
		}
	}
}

// TestOpSpanConcurrentClients runs two real goroutines interleaving
// spans and token batches on one machine and asserts every event's
// parent span belongs to the same op — the property the shared stack
// could not provide.
func TestOpSpanConcurrentClients(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 2})
	h := &recordingHook{}
	m.SetHook(h)

	const rounds = 50
	var wg sync.WaitGroup
	ops := make([][]*Op, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				op := m.NewOp(c+1, 1)
				ops[c] = append(ops[c], op)
				end := m.OpSpan(op, TagLookup)
				endProbe := m.OpSpan(op, TagProbe)
				m.BatchReadOp(op, []Addr{{Disk: c, Block: 0}})
				endProbe.End()
				end.End()
			}
		}(c)
	}
	wg.Wait()

	byOp := map[uint64]int{} // op id -> owning client
	for c := 0; c < 2; c++ {
		for _, op := range ops[c] {
			byOp[op.ID()] = c + 1
			if got := op.Steps(); got != 1 {
				t.Fatalf("client %d op %d charged %d steps, want 1", c+1, op.ID(), got)
			}
		}
	}
	spanOwner := map[uint64]uint64{} // span id -> op id
	for _, e := range h.all() {
		if e.Op == 0 {
			t.Fatalf("unattributed event in a fully tokened workload: %+v", e)
		}
		if want := byOp[e.Op]; e.Client != want {
			t.Fatalf("event for op %d carries client %d, want %d", e.Op, e.Client, want)
		}
		if e.Kind == EventSpanBegin {
			spanOwner[e.Span] = e.Op
			if e.Parent != 0 && spanOwner[e.Parent] != e.Op {
				t.Fatalf("span %d (op %d) parents onto span %d owned by op %d",
					e.Span, e.Op, e.Parent, spanOwner[e.Parent])
			}
		}
	}
}

// TestOpChargeAcrossMachines checks the two cost conventions: Steps is
// the plain total over all machines, MaxMachineSteps the per-machine
// maximum — the operation's cost when the machines' disks are disjoint
// and serve it in parallel.
func TestOpChargeAcrossMachines(t *testing.T) {
	m1 := NewMachine(Config{D: 4, B: 2})
	m2 := NewMachine(Config{D: 4, B: 2})
	op := m1.NewOp(1, 1)

	// 2 steps on m1 (depth-2 queue on disk 0), 1 step on m2.
	m1.BatchReadOp(op, []Addr{{Disk: 0, Block: 0}, {Disk: 0, Block: 1}})
	m2.BatchReadOp(op, []Addr{{Disk: 1, Block: 0}})

	if got := op.Steps(); got != 3 {
		t.Errorf("Steps = %d, want 3 (sum over machines)", got)
	}
	if got := op.MaxMachineSteps(); got != 2 {
		t.Errorf("MaxMachineSteps = %d, want 2 (deepest machine)", got)
	}
	if got := op.Blocks(); got != 3 {
		t.Errorf("Blocks = %d, want 3", got)
	}
}

// TestBatchReadSharedChargesEveryOp checks the merged-batch accounting
// rule: the machine is charged once, every participating op is charged
// the batch's full cost, and the event carries the attribution list.
func TestBatchReadSharedChargesEveryOp(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 2})
	h := &recordingHook{}
	m.SetHook(h)

	a := m.NewOp(1, 1)
	b := m.NewOp(2, 1)
	base := m.Stats()
	m.BatchReadShared([]*Op{a, b}, []Addr{{Disk: 0, Block: 0}, {Disk: 1, Block: 0}})

	if d := m.Stats().Sub(base); d.ParallelIOs != 1 || d.BlockReads != 2 {
		t.Errorf("machine charged %d steps %d reads, want 1 and 2 (once)", d.ParallelIOs, d.BlockReads)
	}
	for _, op := range []*Op{a, b} {
		if op.Steps() != 1 || op.Blocks() != 2 || op.Reads() != 2 {
			t.Errorf("op %d charged steps=%d blocks=%d reads=%d, want 1/2/2 (full batch)",
				op.ID(), op.Steps(), op.Blocks(), op.Reads())
		}
	}
	evs := h.all()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	e := evs[0]
	if len(e.Ops) != 2 || e.Ops[0] != a.ID() || e.Ops[1] != b.ID() {
		t.Errorf("event attribution list = %v, want [%d %d]", e.Ops, a.ID(), b.ID())
	}
}
