package pdm

import (
	"sync"
	"testing"
)

// idleOpCount returns how many released tokens wait in the idle list.
func idleOpCount() int {
	idleOps.mu.Lock()
	defer idleOps.mu.Unlock()
	return len(idleOps.ops)
}

// TestReleasedOpIsReissuedReset: a released token is the next one
// minted, under the next ID of its minter's counter, with no charge,
// lane, span stack or identity of its previous operation left on it.
func TestReleasedOpIsReissuedReset(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 2})
	m.SetHook(nopHook{})
	a := m.NewOp(3, 2)
	end := m.OpSpan(a, TagInsert)
	m.BatchReadOp(a, []Addr{{Disk: 0, Block: 0}, {Disk: 1, Block: 0}})
	m.BatchWriteOp(a, []BlockWrite{{Addr: Addr{Disk: 2, Block: 0}, Data: []Word{1, 2}}})
	m.ChargeSteps(a, 2)
	end.End()
	if a.Steps() == 0 || a.Blocks() == 0 || a.MaxMachineSteps() == 0 {
		t.Fatal("the first op was not charged")
	}
	id := a.ID()
	ReleaseOp(a)

	b := m.NewOp(5, 1)
	if b != a {
		t.Fatal("a released token was not reissued")
	}
	if b.ID() != id+1 || b.client != 5 || b.Keys() != 1 {
		t.Errorf("reissued token has id %d, client %d, keys %d; want %d, 5, 1", b.ID(), b.client, b.Keys(), id+1)
	}
	if b.Steps() != 0 || b.Reads() != 0 || b.Writes() != 0 || b.Faults() != 0 || b.MaxMachineSteps() != 0 {
		t.Errorf("reissued token carries charges: steps %d, reads %d, writes %d, faults %d, machine steps %d",
			b.Steps(), b.Reads(), b.Writes(), b.Faults(), b.MaxMachineSteps())
	}
	for i := range b.lanes {
		if b.lanes[i].Load() != 0 {
			t.Errorf("reissued token keeps lane %d's machine", i)
		}
	}
	if b.stack != nil {
		t.Error("reissued token holds a span stack")
	}
	// Its charges are its own from here on.
	m.BatchReadOp(b, []Addr{{Disk: 3, Block: 0}})
	if b.Steps() != 1 || b.Reads() != 1 || b.MaxMachineSteps() != 1 {
		t.Errorf("reissued token charged steps %d, reads %d, machine steps %d; want 1, 1, 1",
			b.Steps(), b.Reads(), b.MaxMachineSteps())
	}
	ReleaseOp(b)
	if c := MakeOp(77, 1, 1); c != b || c.ID() != 77 {
		t.Errorf("MakeOp did not reissue the idle token under its own ID")
	}
	ReleaseOp(nil)
}

// TestOpWithOpenSpanIsNotReused: a token released while a span of its
// operation is still open — the operation panicked before closing it —
// is dropped, not reissued: the next op must not inherit its stack. The
// dropped token's span still closes normally.
func TestOpWithOpenSpanIsNotReused(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 2})
	h := &recordingHook{}
	m.SetHook(h)
	before := idleOpCount()
	a := m.NewOp(1, 1)
	end := m.OpSpan(a, TagLookup)
	ReleaseOp(a)
	if got := idleOpCount(); got > before {
		t.Fatalf("a token with an open span joined the idle list (%d idle, %d before)", got, before)
	}
	b := m.NewOp(2, 1)
	if b == a {
		t.Fatal("a token with an open span was reissued")
	}
	m.OpSpan(b, TagInsert).End()
	end.End()
	var ends int
	for _, e := range h.all() {
		if e.Kind == EventSpanEnd && e.Op == a.ID() && e.Tag == TagLookup.String() {
			ends++
		}
	}
	if ends != 1 {
		t.Errorf("the dropped token's root span closed %d times, want 1", ends)
	}
	// Once its span is closed it may be released.
	ReleaseOp(a)
	if c := m.NewOp(3, 1); c != a {
		t.Error("a token released after its span closed was not reissued")
	}
}

// TestIdleOpsBoundedByOpenOps: the idle list never holds more tokens
// than were ever out at once. c goroutines each mint, charge and release
// one token at a time, so at most c are out; the list may grow to c.
func TestIdleOpsBoundedByOpenOps(t *testing.T) {
	const c, n = 6, 300
	before := idleOpCount()
	m := NewMachine(Config{D: 4, B: 2})
	m.SetHook(nopHook{})
	var wg sync.WaitGroup
	for g := 0; g < c; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				op := m.NewOp(g, 1)
				if op.Steps() != 0 || op.stack != nil {
					t.Errorf("client %d got a token with %d steps or a stack", g, op.Steps())
				}
				end := m.OpSpan(op, TagLookup)
				m.BatchReadOp(op, []Addr{{Disk: g % 4, Block: i % 8}})
				end.End()
				if op.Steps() != 1 {
					t.Errorf("client %d's op was charged %d steps, want 1", g, op.Steps())
				}
				ReleaseOp(op)
			}
		}(g)
	}
	wg.Wait()
	if got := idleOpCount(); got > max(before, c) {
		t.Errorf("%d clients left %d idle tokens (%d before)", c, got, before)
	}
}
