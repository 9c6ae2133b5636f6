package obs

import (
	"io"
	"reflect"
	"sort"
	"sync"
	"testing"

	"pdmdict/internal/pdm"
)

// fskvChain is the consumer chain cmd/fskv installs with -trace: the
// watchdog over collector, event ring, op accountant and a trace
// writer.
func fskvChain(c *Collector) pdm.Hook {
	return NewMonitor(Tee(c, NewRing(256), NewOpAccountant(), NewJSONLWriter(io.Discard)), DefaultRules()...)
}

// chaosChain is the chain the chaos soak installs under pdmbench
// -serve: a watchdog over the suite hook (itself a watchdog over
// collector and ring) and a sampling op accountant.
func chaosChain() pdm.Hook {
	acct := NewOpAccountant()
	acct.SampleEvery = 64
	suite := NewMonitor(Tee(NewCollector(), NewRing(256)), DefaultRules()...)
	return NewMonitor(Tee(suite, acct), DefaultRules()...)
}

// lookupFeeder feeds a hook the events of Dynamic lookups: per lookup a
// root span begin, one 40-address read and the span end, under a fresh
// op token, alternating two clients. Like the machine, it reuses one
// address buffer for every read.
type lookupFeeder struct {
	hook  pdm.Hook
	op    uint64
	step  int64
	addrs [40]pdm.Addr
}

func (f *lookupFeeder) lookup() {
	f.op++
	client := int(f.op % 2)
	for i := range f.addrs {
		f.addrs[i] = pdm.Addr{Disk: i, Block: int(f.op % 97)}
	}
	f.hook.Event(pdm.Event{Kind: pdm.EventSpanBegin, Tag: TagLookup, Span: f.op, Op: f.op, Client: client, Keys: 1, Step: f.step})
	f.hook.Event(pdm.Event{Kind: pdm.EventRead, Tag: TagLookup, Addrs: f.addrs[:], Steps: 1, Depth: 1, Span: f.op, Op: f.op, Client: client})
	f.step++
	f.hook.Event(pdm.Event{Kind: pdm.EventSpanEnd, Tag: TagLookup, Span: f.op, Op: f.op, Client: client, Step: f.step})
}

func (f *lookupFeeder) lookups(n int) {
	for range n {
		f.lookup()
	}
}

// medianAllocs returns the median of 51 single-call AllocsPerRun
// measurements of fn, so a collection or a runtime-internal allocation
// landing in one call does not decide the result.
func medianAllocs(fn func()) float64 {
	runs := make([]float64, 51)
	for i := range runs {
		runs[i] = testing.AllocsPerRun(1, fn)
	}
	sort.Float64s(runs)
	return runs[len(runs)/2]
}

// The allocation budget of the hook chain: once warm, every consumer
// folds a lookup's events into storage it owns and recycles, so the
// whole chain allocates nothing per lookup. Warm-up outlasts the
// largest window a consumer keeps (the burn rule's 2048-step slow
// window); eval ticks and skew-window rolls are pinned amortized.
func TestHookChainAllocationPins(t *testing.T) {
	const warm = 4096
	rows := []struct {
		name string
		hook pdm.Hook
	}{
		{"full chain", fskvChain(NewCollector())},
		{"chaos soak chain", chaosChain()},
		{"Collector", NewCollector()},
		{"Ring", NewRing(256)},
		{"OpAccountant", NewOpAccountant()},
		{"JSONLWriter", NewJSONLWriter(io.Discard)},
		{"Monitor", NewMonitor(nil, DefaultRules()...)},
	}
	for _, row := range rows {
		f := &lookupFeeder{hook: row.hook}
		f.lookups(warm)
		if got := medianAllocs(f.lookup); got > 0 {
			t.Errorf("%s: a warm lookup allocates %.0f objects, want 0", row.name, got)
		}
	}

	// 64 lookups at one step each cross every rule's eval tick, and with
	// 64-step skew windows one window roll, in every measured run.
	c := NewCollector()
	c.WindowSteps = 64
	f := &lookupFeeder{hook: fskvChain(c)}
	f.lookups(warm + 64*c.MaxWindows)
	if got := medianAllocs(func() { f.lookups(64) }); got > 1 {
		t.Errorf("64 warm lookups across an eval tick and a window roll allocate %.0f objects, want at most 1", got)
	}
}

// snapshotFeeder issues lookups whose read is a merged batch carrying
// an attribution list, through buffers it scribbles over after every
// Event call, as the machine reuses its own.
type snapshotFeeder struct {
	hook  pdm.Hook
	addrs []pdm.Addr
	ops   []uint64
}

// lookupEvents returns op's three events with Addrs and Ops in the
// given buffers.
func lookupEvents(op uint64, addrs []pdm.Addr, ops []uint64) []pdm.Event {
	for i := range addrs {
		addrs[i] = pdm.Addr{Disk: i, Block: int(op)}
	}
	ops[0], ops[1] = op, op|1<<40 // the second op is never in flight
	return []pdm.Event{
		{Kind: pdm.EventSpanBegin, Tag: TagLookup, Span: op, Op: op, Client: int(op % 3), Keys: 1, Step: int64(op)},
		{Kind: pdm.EventRead, Tag: TagLookup, Addrs: addrs, Ops: ops, Steps: 1, Depth: 1, Span: op},
		{Kind: pdm.EventSpanEnd, Tag: TagLookup, Span: op, Op: op, Client: int(op % 3), Step: int64(op) + 1},
	}
}

func (f *snapshotFeeder) lookups(from, to uint64) {
	for op := from; op < to; op++ {
		for k := range 3 {
			f.hook.Event(lookupEvents(op, f.addrs, f.ops)[k])
			for i := range f.addrs {
				f.addrs[i] = pdm.Addr{Disk: -1, Block: -1}
			}
			f.ops[0], f.ops[1] = 0, 0
		}
	}
}

// wantEvents returns the events of ops [from, to) in fresh buffers, the
// way a snapshot must show them.
func wantEvents(from, to uint64) []pdm.Event {
	var out []pdm.Event
	for op := from; op < to; op++ {
		out = append(out, lookupEvents(op, make([]pdm.Addr, 4), make([]uint64, 2))...)
	}
	for i := range out {
		out[i] = cloneEvent(out[i])
	}
	return out
}

// Snapshots are deep copies: consumers copy the caller's slices into
// storage they own and recycle, so a snapshot taken earlier must not
// change when that storage is reused, nor when the caller reuses its
// buffers, however many events follow.
func TestSnapshotsSurviveRecycling(t *testing.T) {
	ring := NewRing(30)
	acct := NewOpAccountant()
	acct.RecorderSize = 8
	hook := Tee(ring, acct)
	newFeeder := func() *snapshotFeeder {
		return &snapshotFeeder{hook: hook, addrs: make([]pdm.Addr, 4), ops: make([]uint64, 2)}
	}
	newFeeder().lookups(1, 41)
	events := ring.Events()
	records, _ := acct.Recorded()

	check := func(when string) {
		t.Helper()
		if want := wantEvents(31, 41); !reflect.DeepEqual(events, want) {
			t.Errorf("%s: ring snapshot =\n%+v\nwant\n%+v", when, events, want)
		}
		if len(records) != 8 {
			t.Fatalf("%s: %d flight records, want 8", when, len(records))
		}
		for i, rec := range records {
			op := uint64(33 + i)
			if want := wantEvents(op, op+1); rec.Op != op || !reflect.DeepEqual(rec.Events, want) {
				t.Errorf("%s: flight record %d = op %d %+v, want op %d %+v", when, i, rec.Op, rec.Events, op, want)
			}
		}
	}
	check("before recycling")

	var wg sync.WaitGroup
	for _, from := range []uint64{1000, 2000} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			newFeeder().lookups(from, from+400) // 1 200 events each
		}()
	}
	wg.Wait()
	check("after 2 400 more events")
}
