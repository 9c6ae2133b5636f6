package pdm

import (
	"sync"
	"sync/atomic"
	"testing"
)

// recordingHook copies every event it sees (including the Addrs slice,
// which is only valid during the call).
type recordingHook struct {
	mu     sync.Mutex
	events []Event
}

func (h *recordingHook) Event(e Event) {
	cp := e
	cp.Addrs = append([]Addr(nil), e.Addrs...)
	h.mu.Lock()
	h.events = append(h.events, cp)
	h.mu.Unlock()
}

func (h *recordingHook) all() []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Event(nil), h.events...)
}

func TestHookSeesReadsAndWrites(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 2})
	h := &recordingHook{}
	m.SetHook(h)

	// Depth-2 read: two blocks on disk 1, one on disk 0.
	m.BatchRead([]Addr{{1, 0}, {1, 1}, {0, 0}})
	m.BatchWrite([]BlockWrite{{Addr: Addr{2, 3}, Data: []Word{7}}})

	evs := h.all()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	r := evs[0]
	if r.Kind != EventRead || r.Steps != 2 || r.Depth != 2 || len(r.Addrs) != 3 {
		t.Errorf("read event = %+v, want kind=read steps=2 depth=2 |addrs|=3", r)
	}
	w := evs[1]
	if w.Kind != EventWrite || w.Steps != 1 || w.Depth != 1 || len(w.Addrs) != 1 {
		t.Errorf("write event = %+v, want kind=write steps=1 depth=1 |addrs|=1", w)
	}
	if w.Addrs[0] != (Addr{2, 3}) {
		t.Errorf("write event addr = %v, want 2:3", w.Addrs[0])
	}
	if EventRead.String() != "read" || EventWrite.String() != "write" {
		t.Error("EventKind strings wrong")
	}
}

func TestHookSkipsEmptyBatches(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 2})
	h := &recordingHook{}
	m.SetHook(h)
	m.BatchRead(nil)
	m.BatchWrite(nil)
	if n := len(h.all()); n != 0 {
		t.Errorf("empty batches fired %d events, want 0", n)
	}
}

func TestSpanTagsJoin(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 2})
	h := &recordingHook{}
	m.SetHook(h)

	end := m.Span("insert")
	m.BatchRead([]Addr{{0, 0}})
	endProbe := m.Span("probe")
	m.BatchRead([]Addr{{0, 0}})
	endProbe()
	m.BatchWrite([]BlockWrite{{Addr: Addr{1, 0}, Data: []Word{1}}})
	end()
	m.BatchRead([]Addr{{0, 0}}) // outside any span

	type want struct {
		kind EventKind
		tag  string
	}
	wants := []want{
		{EventSpanBegin, "insert"},
		{EventRead, "insert"},
		{EventSpanBegin, "insert.probe"},
		{EventRead, "insert.probe"},
		{EventSpanEnd, "insert.probe"},
		{EventWrite, "insert"},
		{EventSpanEnd, "insert"},
		{EventRead, ""},
	}
	evs := h.all()
	if len(evs) != len(wants) {
		t.Fatalf("got %d events, want %d", len(evs), len(wants))
	}
	for i, w := range wants {
		if evs[i].Kind != w.kind || evs[i].Tag != w.tag {
			t.Errorf("event %d = kind %v tag %q, want kind %v tag %q",
				i, evs[i].Kind, evs[i].Tag, w.kind, w.tag)
		}
	}
}

func TestSpanEventsCarryIDsAndSteps(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 2})
	h := &recordingHook{}
	m.SetHook(h)

	end := m.Span("insert")
	m.BatchRead([]Addr{{0, 0}}) // 1 step
	endProbe := m.Span("probe")
	m.BatchRead([]Addr{{0, 0}, {1, 0}}) // 1 step
	endProbe()
	end()

	evs := h.all()
	// [span_begin insert][read][span_begin probe][read][span_end probe][span_end insert]
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6", len(evs))
	}
	bi, bp, ep, ei := evs[0], evs[2], evs[4], evs[5]
	if bi.Span == 0 || bi.Parent != 0 {
		t.Errorf("root begin = id %d parent %d, want nonzero id, parent 0", bi.Span, bi.Parent)
	}
	if bp.Parent != bi.Span {
		t.Errorf("nested span parent = %d, want %d", bp.Parent, bi.Span)
	}
	if ep.Span != bp.Span || ei.Span != bi.Span {
		t.Errorf("end ids (%d, %d) do not match begin ids (%d, %d)", ep.Span, ei.Span, bp.Span, bi.Span)
	}
	if bi.Step != 0 || bp.Step != 1 || ep.Step != 2 || ei.Step != 2 {
		t.Errorf("step timestamps = %d %d %d %d, want 0 1 2 2", bi.Step, bp.Step, ep.Step, ei.Step)
	}
	// Batch events carry the innermost open span's ID.
	if evs[1].Span != bi.Span || evs[3].Span != bp.Span {
		t.Errorf("batch span ids = %d %d, want %d %d", evs[1].Span, evs[3].Span, bi.Span, bp.Span)
	}
	if bi.WallNanos != 0 || ei.WallNanos != 0 {
		t.Error("wall nanos nonzero without an injected clock")
	}
}

func TestSpanWallClockInjection(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 2})
	h := &recordingHook{}
	m.SetHook(h)
	var tick int64
	m.SetWallClock(func() int64 { tick += 5; return tick })

	end := m.Span("lookup")
	m.BatchRead([]Addr{{0, 0}})
	end()

	evs := h.all()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].WallNanos != 0 {
		t.Errorf("begin WallNanos = %d, want 0", evs[0].WallNanos)
	}
	if evs[2].WallNanos != 5 {
		t.Errorf("end WallNanos = %d, want 5 (one clock tick)", evs[2].WallNanos)
	}
}

func TestSpanIDsDeterministic(t *testing.T) {
	run := func() []Event {
		m := NewMachine(Config{D: 2, B: 2})
		h := &recordingHook{}
		m.SetHook(h)
		for i := 0; i < 3; i++ {
			end := m.Span("insert")
			m.BatchWrite([]BlockWrite{{Addr: Addr{i % 2, i}, Data: []Word{Word(i)}}})
			inner := m.Span("probe")
			m.BatchRead([]Addr{{i % 2, i}})
			inner()
			end()
		}
		return h.all()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Span != b[i].Span || a[i].Parent != b[i].Parent || a[i].Step != b[i].Step {
			t.Errorf("event %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSpanWithNilHookAllocatesNothing(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 2})
	if avg := testing.AllocsPerRun(1000, func() {
		end := m.Span("lookup")
		end()
	}); avg != 0 {
		t.Errorf("nil-hook Span allocates %.1f objects per call, want 0", avg)
	}
}

func TestBatchWithNilHookAddsNoAllocations(t *testing.T) {
	const d = 20
	m := NewMachine(Config{D: d, B: 64})
	addrs := make([]Addr, d)
	for i := range addrs {
		addrs[i] = Addr{Disk: i, Block: i % 3}
	}
	m.BatchRead(addrs) // materialize the blocks up front
	// A fresh-buffer read costs 2 allocations whatever the batch size —
	// the arena and its views — and a read into a warm
	// caller-owned buffer costs none (a Try read: 2, its per-access
	// outcome table and the closure it hands the shard runner). The
	// nil-hook tracing path must not add to any of them.
	if avg := testing.AllocsPerRun(1000, func() {
		end := m.Span("lookup")
		m.BatchRead(addrs)
		end()
	}); avg != 2 {
		t.Errorf("nil-hook traced fresh-buffer read of %d blocks allocates %.1f objects, want 2 (arena, views)", d, avg)
	}
	var rb ReadBuf
	op := m.NewOp(1, 1)
	if avg := testing.AllocsPerRun(1000, func() {
		end := m.OpSpan(op, "lookup")
		m.BatchReadInto(&rb, op, nil, addrs)
		end()
	}); avg != 0 {
		t.Errorf("nil-hook traced read into a warm buffer allocates %.1f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		end := m.OpSpan(op, "lookup")
		if _, err := m.TryBatchReadInto(&rb, op, nil, addrs); err != nil {
			t.Fatal(err)
		}
		end()
	}); avg != 2 {
		t.Errorf("nil-hook traced fault-free Try read into a warm buffer allocates %.1f objects, want 2", avg)
	}
}

func TestSetHookNilStopsEvents(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 2})
	h := &recordingHook{}
	m.SetHook(h)
	m.BatchRead([]Addr{{0, 0}})
	m.SetHook(nil)
	m.BatchRead([]Addr{{0, 0}})
	if n := len(h.all()); n != 1 {
		t.Errorf("events after hook removal: got %d total, want 1", n)
	}
}

func TestStatsSubReportsWindowedMaxBatch(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 2})
	// Lifetime worst: a depth-3 batch.
	m.BatchRead([]Addr{{0, 0}, {0, 1}, {0, 2}})
	before := m.Stats()
	// Window contains only a depth-2 batch.
	m.BatchRead([]Addr{{1, 0}, {1, 1}})
	delta := m.Stats().Sub(before)
	if delta.MaxBatch != 2 {
		t.Errorf("windowed MaxBatch = %d, want 2 (lifetime is 3)", delta.MaxBatch)
	}
	if m.Stats().MaxBatch != 3 {
		t.Errorf("lifetime MaxBatch = %d, want 3", m.Stats().MaxBatch)
	}
	// An empty window has no worst batch.
	now := m.Stats()
	if d := now.Sub(now); d.MaxBatch != 0 {
		t.Errorf("empty-window MaxBatch = %d, want 0", d.MaxBatch)
	}
}

func TestDepthCountsHistogram(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 2})
	m.BatchRead([]Addr{{0, 0}})                    // depth 1
	m.BatchRead([]Addr{{0, 0}, {1, 0}})            // depth 1
	m.BatchRead([]Addr{{2, 0}, {2, 1}})            // depth 2
	m.BatchWrite([]BlockWrite{{Addr: Addr{3, 0}}}) // depth 1
	s := m.Stats()
	if s.DepthCounts[0] != 3 || s.DepthCounts[1] != 1 {
		t.Errorf("DepthCounts = [%d %d ...], want [3 1 ...]", s.DepthCounts[0], s.DepthCounts[1])
	}
}

func TestDepthCountsSaturate(t *testing.T) {
	m := NewMachine(Config{D: 1, B: 1})
	addrs := make([]Addr, DepthBuckets+10)
	for i := range addrs {
		addrs[i] = Addr{0, i}
	}
	before := m.Stats()
	m.BatchRead(addrs)
	s := m.Stats()
	if s.DepthCounts[DepthBuckets-1] != 1 {
		t.Errorf("overdeep batch not counted in the saturation bucket: %v", s.DepthCounts[DepthBuckets-1])
	}
	if s.MaxBatch != len(addrs) {
		t.Errorf("lifetime MaxBatch = %d, want %d (exact)", s.MaxBatch, len(addrs))
	}
	if d := s.Sub(before); d.MaxBatch != DepthBuckets {
		t.Errorf("windowed MaxBatch = %d, want saturation cap %d", d.MaxBatch, DepthBuckets)
	}
}

// countingHook only counts, so it is cheap enough for the race test.
type countingHook struct{ n atomic.Int64 }

func (h *countingHook) Event(Event) { h.n.Add(1) }

func TestHookAndSpansConcurrent(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 4})
	h := &countingHook{}
	m.SetHook(h)
	var wg sync.WaitGroup
	const goroutines, iters = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				end := m.Span("op")
				a := Addr{Disk: g % 4, Block: i % 8}
				m.BatchWrite([]BlockWrite{{Addr: a, Data: []Word{Word(g)}}})
				m.BatchRead([]Addr{a})
				end()
			}
		}(g)
	}
	wg.Wait()
	// Each iteration fires span_begin + write + read + span_end.
	if got := h.n.Load(); got != goroutines*iters*4 {
		t.Errorf("hook saw %d events, want %d", got, goroutines*iters*4)
	}
	if got := m.Stats().ParallelIOs; got != goroutines*iters*2 {
		t.Errorf("ParallelIOs = %d, want %d", got, goroutines*iters*2)
	}
}
