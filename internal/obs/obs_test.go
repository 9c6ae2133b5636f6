package obs

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"pdmdict/internal/pdm"
)

func TestHistBucketsAndQuantiles(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 1, 2, 3, 5, 100} {
		h.Observe(v)
	}
	h.Observe(-7) // clamps to zero
	if h.Total() != 8 {
		t.Fatalf("Total = %d, want 8", h.Total())
	}
	bs := h.Buckets()
	// zeros:2, [1,1]:2, [2,3]:2, [4,7]:1, [64,127]:1
	want := []HistBucket{
		{0, 0, 2}, {1, 1, 2}, {2, 3, 2}, {4, 7, 1}, {64, 127, 1},
	}
	if len(bs) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", bs, want)
	}
	for i := range want {
		if bs[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, bs[i], want[i])
		}
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Errorf("p50 = %d, want 3 (upper edge of the median bucket)", q)
	}
	if q := h.Quantile(1.0); q != 127 {
		t.Errorf("p100 = %d, want 127", q)
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	s := h.Summarize("x")
	if s.Name != "x" || s.Total != 8 || s.Max != 127 {
		t.Errorf("summary = %+v", s)
	}
	if !strings.Contains(h.String(), "64-127") {
		t.Errorf("render missing bucket label:\n%s", h.String())
	}
}

func TestHistConcurrent(t *testing.T) {
	var h Hist
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i % 17)
			}
		}()
	}
	wg.Wait()
	if h.Total() != 8000 {
		t.Errorf("Total = %d, want 8000", h.Total())
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Event(pdm.Event{Steps: i, Addrs: []pdm.Addr{{Disk: i}}})
	}
	evs := r.Events()
	if len(evs) != 3 || r.Total() != 5 {
		t.Fatalf("len=%d total=%d, want 3/5", len(evs), r.Total())
	}
	for i, e := range evs {
		if e.Steps != i+2 {
			t.Errorf("event %d steps = %d, want %d (oldest-first)", i, e.Steps, i+2)
		}
	}
}

func TestRingCopiesAddrs(t *testing.T) {
	r := NewRing(2)
	addrs := []pdm.Addr{{Disk: 1, Block: 2}}
	r.Event(pdm.Event{Addrs: addrs})
	addrs[0] = pdm.Addr{Disk: 9, Block: 9} // caller reuses its slice
	if got := r.Events()[0].Addrs[0]; got != (pdm.Addr{Disk: 1, Block: 2}) {
		t.Errorf("ring aliased caller slice: %v", got)
	}
}

func TestJSONLRoundTripAndReplay(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 4, B: 2})
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	m.SetHook(w)

	end := m.Span(pdm.TagInsert)
	m.BatchWrite([]pdm.BlockWrite{
		{Addr: pdm.Addr{Disk: 0, Block: 0}, Data: []pdm.Word{1}},
		{Addr: pdm.Addr{Disk: 0, Block: 1}, Data: []pdm.Word{2}},
	})
	end.End()
	m.BatchRead([]pdm.Addr{{Disk: 0, Block: 0}, {Disk: 1, Block: 0}})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if first, _, _ := strings.Cut(buf.String(), "\n"); !strings.Contains(first, `"k":"trace"`) ||
		!strings.Contains(first, `"v":5`) {
		t.Errorf("missing v5 header, first line = %s", first)
	}
	events, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("read %d events, want 4 (span_begin, write, span_end, read)", len(events))
	}
	if events[0].Kind != pdm.EventSpanBegin || events[0].Tag != "insert" ||
		events[0].Span == 0 || events[0].Parent != 0 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Kind != pdm.EventWrite || events[1].Tag != "insert" ||
		events[1].Steps != 2 || len(events[1].Addrs) != 2 || events[1].Span != events[0].Span {
		t.Errorf("event 1 = %+v", events[1])
	}
	if events[2].Kind != pdm.EventSpanEnd || events[2].Span != events[0].Span ||
		events[2].Step != 2 || events[2].WallNanos != 0 {
		t.Errorf("event 2 = %+v", events[2])
	}
	if events[3].Kind != pdm.EventRead || events[3].Tag != "" || events[3].Steps != 1 {
		t.Errorf("event 3 = %+v", events[3])
	}

	// Replaying the trace offline through a collector reproduces its
	// I/O cost, and its span folds to the insert's record.
	c := NewCollector()
	for _, e := range events {
		c.Event(e)
	}
	want := m.Stats()
	if _, reads, writes, steps, blocks := c.Totals(); steps != want.ParallelIOs || reads != 1 || writes != 1 ||
		blocks != want.BlockReads+want.BlockWrites {
		t.Errorf("replayed totals: %d reads, %d writes, %d steps, %d blocks; want cost profile of %+v",
			reads, writes, steps, blocks, want)
	}
	if recs := FoldSpans(events, CostModel{}); len(recs) != 1 || recs[0].Tag != "insert" || recs[0].Steps != 2 ||
		recs[0].Writes != 2 {
		t.Errorf("folded spans = %+v, want one 2-step insert writing 2 blocks", recs)
	}
}

func TestJSONLParseErrorsCarryLineNumbers(t *testing.T) {
	const hdr = "{\"k\":\"trace\",\"v\":5}\n"
	cases := []struct {
		name  string
		trace string
		line  int
		want  string
	}{
		{"truncated json", hdr + "{\"k\":\"read\",\"steps\":1}\n{\"k\":\"wri", 3, "line 3"},
		{"unknown kind", hdr + "{\"k\":\"read\"}\n{\"k\":\"read\"}\n{\"k\":\"frobnicate\"}\n", 4, "unknown event kind"},
		{"future version", "{\"k\":\"trace\",\"v\":99}\n", 1, "version 99"},
		{"misplaced header", hdr + "{\"k\":\"read\"}\n{\"k\":\"trace\",\"v\":3}\n", 3, "first line"},
		{"trailing garbage", hdr + "{\"k\":\"read\"} {\"k\":\"read\"}\n", 2, "trailing data"},
		{"headerless", "{\"k\":\"write\",\"tag\":\"insert\",\"steps\":2,\"addrs\":[[0,0],[0,1]]}\n", 1, "header missing"},
		{"pre-header version", "{\"k\":\"trace\",\"v\":2}\n", 1, "version 2"},
		{"empty", "", 1, "header missing"},
		{"undeclared span tag", hdr + "{\"k\":\"read\"}\n{\"k\":\"span_begin\",\"tag\":\"lokup\",\"span\":1}\n", 3, "span tag \"lokup\""},
		{"undeclared path component", hdr + "{\"k\":\"span_end\",\"tag\":\"insert.probing\",\"span\":1}\n", 2, "\"insert.probing\""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEvents(strings.NewReader(tc.trace))
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *ParseError", err)
			}
			if pe.Line != tc.line {
				t.Errorf("line = %d, want %d", pe.Line, tc.line)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q missing %q", err, tc.want)
			}
		})
	}
}

// eventRecorder captures every hook event in order.
type eventRecorder struct {
	mu     sync.Mutex
	events []pdm.Event
}

func (r *eventRecorder) Event(e pdm.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *eventRecorder) kinds() []pdm.EventKind {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]pdm.EventKind, len(r.events))
	for i, e := range r.events {
		out[i] = e.Kind
	}
	return out
}

func TestHistEmptyAndSingleBucket(t *testing.T) {
	var empty Hist
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	s := empty.Summarize("empty")
	if s.Total != 0 || s.Max != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Errorf("empty summary = %+v, want zeros", s)
	}
	if bs := empty.Buckets(); len(bs) != 0 {
		t.Errorf("empty buckets = %+v, want none", bs)
	}

	var single Hist
	for i := 0; i < 5; i++ {
		single.Observe(3) // all samples land in the [2,3] bucket
	}
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := single.Quantile(q); got != 3 {
			t.Errorf("single-bucket Quantile(%v) = %d, want 3", q, got)
		}
	}

	// Out-of-range q on a spread distribution clamps to the extremes:
	// q ≤ 0 is the minimum sample's bucket edge, q ≥ 1 the maximum's.
	var spread Hist
	spread.Observe(0)
	spread.Observe(100)
	if got := spread.Quantile(-0.5); got != spread.Quantile(0) {
		t.Errorf("Quantile(-0.5) = %d, want min edge %d", got, spread.Quantile(0))
	}
	if got := spread.Quantile(1.5); got != spread.Quantile(1) {
		t.Errorf("Quantile(1.5) = %d, want max edge %d", got, spread.Quantile(1))
	}
	s = single.Summarize("single")
	if s.Total != 5 || s.P50 != 3 || s.P99 != 3 || s.Max != 3 {
		t.Errorf("single-bucket summary = %+v", s)
	}
	if bs := single.Buckets(); len(bs) != 1 || bs[0] != (HistBucket{2, 3, 5}) {
		t.Errorf("single-bucket buckets = %+v", bs)
	}
}

func TestTeeFansOutAndSkipsNil(t *testing.T) {
	var a, b Collector
	a.tags, b.tags = map[string]*TagStats{}, map[string]*TagStats{}
	tee := Tee(&a, nil, &b)
	tee.Event(pdm.Event{Steps: 1, Addrs: []pdm.Addr{{}}})
	if na, _, _, _, _ := a.Totals(); na != 1 {
		t.Error("first hook missed event")
	}
	if nb, _, _, _, _ := b.Totals(); nb != 1 {
		t.Error("second hook missed event")
	}
}

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector()
	c.WindowSteps = 2 // close a window every 2 steps
	m := pdm.NewMachine(pdm.Config{D: 2, B: 2})
	m.SetHook(c)

	end := m.Span(pdm.TagInsert)
	m.BatchWrite([]pdm.BlockWrite{
		{Addr: pdm.Addr{Disk: 0, Block: 0}, Data: []pdm.Word{1}},
		{Addr: pdm.Addr{Disk: 1, Block: 0}, Data: []pdm.Word{2}},
	})
	end.End()
	end = m.Span(pdm.TagLookup)
	m.BatchRead([]pdm.Addr{{Disk: 0, Block: 0}})
	m.BatchRead([]pdm.Addr{{Disk: 0, Block: 0}})
	end.End()

	events, reads, writes, steps, blocks := c.Totals()
	if events != 3 || reads != 2 || writes != 1 || steps != 3 || blocks != 4 {
		t.Errorf("totals = %d %d %d %d %d, want 3 2 1 3 4",
			events, reads, writes, steps, blocks)
	}
	tags := c.Tags()
	if tags["insert"].Blocks != 2 || tags["lookup"].Batches != 2 {
		t.Errorf("tags = %+v", tags)
	}
	if pd := c.PerDisk(); len(pd) != 2 || pd[0] != 3 || pd[1] != 1 {
		t.Errorf("perDisk = %v, want [3 1]", pd)
	}
	if ws := c.Windows(); len(ws) == 0 || ws[0].EndStep < 2 {
		t.Errorf("windows = %+v, want at least one closed window", ws)
	} else if sum := ws[0].PerDisk[0] + ws[0].PerDisk[1]; sum == 0 {
		t.Errorf("window has no transfers: %+v", ws[0])
	}
	out := c.String()
	for _, want := range []string{"insert", "lookup", "skew (max/mean)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCollectorGrowsDisksAcrossMachines(t *testing.T) {
	// One collector observing two machines with different D must grow
	// its per-disk tallies to the widest machine.
	c := NewCollector()
	small := pdm.NewMachine(pdm.Config{D: 2, B: 2})
	big := pdm.NewMachine(pdm.Config{D: 6, B: 2})
	small.SetHook(c)
	big.SetHook(c)
	small.BatchRead([]pdm.Addr{{Disk: 1, Block: 0}})
	big.BatchRead([]pdm.Addr{{Disk: 5, Block: 0}})
	if pd := c.PerDisk(); len(pd) != 6 || pd[1] != 1 || pd[5] != 1 {
		t.Errorf("perDisk = %v, want len 6 with disks 1 and 5 hit", pd)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	m := pdm.NewMachine(pdm.Config{D: 4, B: 2})
	m.SetHook(c)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				end := m.Span(pdm.TagLookup)
				m.BatchRead([]pdm.Addr{{Disk: g % 4, Block: i % 8}})
				end.End()
			}
		}(g)
	}
	wg.Wait()
	if events, _, _, _, _ := c.Totals(); events != 800 {
		t.Errorf("events = %d, want 800", events)
	}
	if c.Depth.Total() != 800 {
		t.Errorf("depth samples = %d, want 800", c.Depth.Total())
	}
}
