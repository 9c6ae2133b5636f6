package pdm

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// nopHook observes nothing: what a hooked operation costs with it
// installed is the span machinery's own cost.
type nopHook struct{}

func (nopHook) Event(Event) {}

// TestOpSize pins the token to Go's 96-byte size class: three words of
// identity, four counters, two machine lanes with their step counters,
// and the span stack pointer. Every public call mints one. The sizes
// are those of a 64-bit platform.
func TestOpSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("Op's size class is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Op{}); got != 96 {
		t.Errorf("Op is %d bytes, want 96", got)
	}
}

// TestHookedSpansAllocateNothing checks that, once warm, opening and
// closing spans on a hooked machine allocates nothing: the SpanEnd is a
// value, an op's span stack is borrowed from the machine and handed
// back, and nested span paths are interned.
func TestHookedSpansAllocateNothing(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 2})
	m.SetHook(nopHook{})
	var rb ReadBuf
	addrs := []Addr{{Disk: 0, Block: 0}, {Disk: 1, Block: 0}}
	op := m.NewOp(1, 1)
	rows := []struct {
		name string
		fn   func()
	}{
		{"token root span with a nested probe and backoff", func() {
			end := m.OpSpan(op, TagLookup)
			probe := m.OpSpan(op, TagProbe)
			m.BatchReadInto(&rb, op, nil, addrs)
			probe.End()
			backoff := m.OpSpan(op, TagBackoff)
			m.ChargeSteps(op, 1)
			backoff.End()
			end.End()
		}},
		{"token-less span with a nested probe", func() {
			end := m.Span(TagInsert)
			probe := m.Span(TagProbe)
			m.BatchReadInto(&rb, nil, nil, addrs)
			probe.End()
			end.End()
		}},
	}
	for _, r := range rows {
		r.fn() // warm: the first run borrows a fresh stack and interns the paths
		if avg := testing.AllocsPerRun(1000, r.fn); avg != 0 {
			t.Errorf("%s: a warm hooked run allocates %.1f objects, want 0", r.name, avg)
		}
	}
	if op.stack != nil {
		t.Error("the op kept its span stack after its root span closed")
	}
}

// TestIdleStacksBoundedByOpenOps checks that a machine keeps no more
// span stacks than hooked operations were ever open at once: a root
// span borrows one and its close hands it back.
func TestIdleStacksBoundedByOpenOps(t *testing.T) {
	const c, n = 5, 400
	m := NewMachine(Config{D: 4, B: 2})
	m.SetHook(nopHook{})
	rng := rand.New(rand.NewSource(1))
	var open []SpanEnd
	var nested []SpanEnd
	for i := 0; i < n; i++ {
		if len(open) == c {
			// Close a random open op: its nested span, then its root.
			j := rng.Intn(c)
			nested[j].End()
			open[j].End()
			open = append(open[:j], open[j+1:]...)
			nested = append(nested[:j], nested[j+1:]...)
		}
		op := m.NewOp(i%c, 1)
		open = append(open, m.OpSpan(op, TagLookup))
		nested = append(nested, m.OpSpan(op, TagProbe))
		m.BatchReadOp(op, []Addr{{Disk: i % 4, Block: 0}})
		if got := len(m.stacks) + len(open); got > c {
			t.Fatalf("after op %d: %d idle and %d lent stacks, want at most %d in all", i, len(m.stacks), len(open), c)
		}
	}
	for j := range open {
		nested[j].End()
		open[j].End()
	}
	if got := len(m.stacks); got > c {
		t.Errorf("%d ops, at most %d open at once, left %d idle stacks", n, c, got)
	}

	// The same bound with the ops on c goroutines, one open op each.
	m = NewMachine(Config{D: 4, B: 2})
	m.SetHook(nopHook{})
	var wg sync.WaitGroup
	for g := 0; g < c; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/c; i++ {
				op := m.NewOp(g, 1)
				end := m.OpSpan(op, TagInsert)
				probe := m.OpSpan(op, TagProbe)
				m.BatchReadOp(op, []Addr{{Disk: g % 4, Block: i}})
				probe.End()
				end.End()
			}
		}(g)
	}
	wg.Wait()
	if got := len(m.stacks); got > c {
		t.Errorf("%d goroutines left %d idle stacks", c, got)
	}
}

// TestStackStraddlesMachines follows an op whose root span opens on one
// machine and whose nested span opens on another, the shape of a
// dictionary migrating between two machines: the nested span rides the
// borrowed stack, the root's close hands the stack back, and the op's
// per-machine accounting is what the two machines charged.
func TestStackStraddlesMachines(t *testing.T) {
	m1 := NewMachine(Config{D: 4, B: 2})
	m2 := NewMachine(Config{D: 4, B: 2})
	h := &recordingHook{}
	m1.SetHook(nopHook{})
	m2.SetHook(h)
	op := m1.NewOp(1, 1)
	end := m1.OpSpan(op, TagInsert)
	m1.BatchReadOp(op, []Addr{{Disk: 0, Block: 0}, {Disk: 0, Block: 1}})
	rebuild := m2.OpSpan(op, TagRebuild)
	m2.BatchReadOp(op, []Addr{{Disk: 1, Block: 0}})
	rebuild.End()
	end.End()

	if op.stack != nil || len(m1.stacks) != 1 || len(m2.stacks) != 0 {
		t.Errorf("after the root closed: op holds a stack %v, idle stacks %d on the first machine and %d on the second, want false, 1, 0",
			op.stack != nil, len(m1.stacks), len(m2.stacks))
	}
	if op.Steps() != 3 || op.MaxMachineSteps() != 2 {
		t.Errorf("Steps = %d, MaxMachineSteps = %d, want 3 and 2", op.Steps(), op.MaxMachineSteps())
	}
	for _, e := range h.all() {
		if e.Tag != "insert.rebuild" || e.Op != op.ID() {
			t.Errorf("second machine's event %+v, want tag insert.rebuild and op %d", e, op.ID())
		}
	}
}

// TestSpanPathsInternedUpToBound opens every three-deep nesting of the
// declared tags — more distinct paths than a machine interns — and
// checks every span is still tagged with its full path while the
// machine's interned set stops at its bound.
func TestSpanPathsInternedUpToBound(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 2})
	h := &recordingHook{}
	m.SetHook(h)
	tags := []Tag{TagLookup, TagInsert, TagDelete, TagProbe, TagScan, TagBuild,
		TagBulkload, TagRehash, TagRebuild, TagRepair, TagScrub, TagBackoff}
	op := m.NewOp(1, 1)
	var want []string
	for _, a := range tags {
		endA := m.OpSpan(op, a)
		want = append(want, a.name)
		for _, b := range tags {
			endB := m.OpSpan(op, b)
			want = append(want, a.name+"."+b.name)
			for _, c := range tags {
				m.OpSpan(op, c).End()
				want = append(want, a.name+"."+b.name+"."+c.name)
			}
			endB.End()
		}
		endA.End()
	}
	if len(m.paths) != maxSpanPaths {
		t.Errorf("the machine interned %d paths, want its bound %d", len(m.paths), maxSpanPaths)
	}
	var got []string
	for _, e := range h.all() {
		if e.Kind == EventSpanBegin {
			got = append(got, e.Tag)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("span paths differ from the joined tags: %d spans, want %d", len(got), len(want))
	}
}
