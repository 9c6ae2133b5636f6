package pdm

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// droppedHook marks a machine's collection. It hangs off one machine as
// its hook and nothing else points at it, so its finalizer runs only
// once that machine is unreachable.
type droppedHook struct{ gone chan struct{} }

func (*droppedHook) Event(Event) {}

// watchedMachine returns a hooked machine and a channel that closes once
// the collector has freed it.
func watchedMachine() (*Machine, <-chan struct{}) {
	m := NewMachine(Config{D: 4, B: 2})
	h := &droppedHook{gone: make(chan struct{})}
	runtime.SetFinalizer(h, func(h *droppedHook) { close(h.gone) })
	m.SetHook(h)
	return m, h.gone
}

// collected reports whether gone closes within a few collections. It
// takes more than one: a machine's scratch pool stays registered with
// the runtime until the second collection after its last use.
func collected(gone <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-gone:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// chargedToken mints a token on m, charges it one read inside its root
// span and closes the span: a completed operation whose caller keeps
// its token.
func chargedToken(m *Machine) *Op {
	op := m.NewOp(1, 1)
	end := m.OpSpan(op, TagLookup)
	m.BatchReadOp(op, []Addr{{Disk: 0, Block: 0}, {Disk: 1, Block: 0}})
	end.End()
	return op
}

// drainIdleOps empties the idle list, so the next tokens are carved.
func drainIdleOps() {
	idleOps.mu.Lock()
	idleOps.ops = nil
	idleOps.mu.Unlock()
}

// TestKeptTokenDoesNotPinItsMachine: a caller may keep a completed
// token as long as it likes; the machine that served the operation is
// still collected once nothing else holds it.
func TestKeptTokenDoesNotPinItsMachine(t *testing.T) {
	m, gone := watchedMachine()
	op := chargedToken(m)
	if op.Steps() != 1 || op.MaxMachineSteps() != 1 {
		t.Fatalf("token charged %d steps, %d on its machine; want 1, 1", op.Steps(), op.MaxMachineSteps())
	}
	m = nil
	if !collected(gone) {
		t.Error("a kept token keeps the machine it was charged on alive")
	}
	if op.Steps() != 1 {
		t.Errorf("kept token reads %d steps after its machine was freed, want 1", op.Steps())
	}
	runtime.KeepAlive(op)
}

// TestKeptTokenDoesNotPinItsSlabSiblings: two tokens carved back to back
// share a slab, which the one kept token holds. The machine the other
// token was charged on must still be collected once both it and that
// token are dropped.
func TestKeptTokenDoesNotPinItsSlabSiblings(t *testing.T) {
	m1 := NewMachine(Config{D: 4, B: 2})
	var kept, sibling *Op
	var gone <-chan struct{}
	for {
		drainIdleOps()
		var m2 *Machine
		m2, gone = watchedMachine()
		kept, sibling = chargedToken(m1), chargedToken(m2)
		if uintptr(unsafe.Pointer(sibling)) == uintptr(unsafe.Pointer(kept))+unsafe.Sizeof(Op{}) {
			break
		}
		// The two straddled a slab boundary; the next pair shares one.
	}
	sibling = nil
	if !collected(gone) {
		t.Error("a kept token keeps alive the machine a slab sibling was charged on")
	}
	runtime.KeepAlive(kept)
	runtime.KeepAlive(m1)
}

// TestOpSlabFillsItsSizeClass pins the slab to the allocator's size
// class that holds it, header included, with at most 1 % of the class
// left unused by tokens.
func TestOpSlabFillsItsSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the slab's size class is pinned for 64-bit platforms")
	}
	const n = 64
	tokens := uint64(opSlabLen * unsafe.Sizeof(Op{}))
	var class uint64
	for trial := 0; trial < 3; trial++ {
		slabs := make([]*opSlab, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range slabs {
			slabs[i] = new(opSlab)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(slabs)
		// The least of three trials, in case anything else allocated
		// between the two readings.
		if got := (after.TotalAlloc - before.TotalAlloc) / n; trial == 0 || got < class {
			class = got
		}
	}
	if class < tokens {
		t.Fatalf("a slab of %d tokens (%d B) took %d B", opSlabLen, tokens, class)
	}
	if waste := float64(class-tokens) / float64(class); waste > 0.01 {
		t.Errorf("a slab of %d tokens (%d B) takes %d B: %.1f %% unused, want at most 1 %%",
			opSlabLen, tokens, class, 100*waste)
	}
}

// TestCarvedTokensAreFreshAndDistinct: with no idle token, consecutive
// mints carve adjacent, zeroed tokens, and a new slab starts when one is
// used up.
func TestCarvedTokensAreFreshAndDistinct(t *testing.T) {
	drainIdleOps()
	seen := map[*Op]bool{}
	var prev *Op
	slabs := 0
	for i := 0; i < 3*opSlabLen; i++ {
		o := MakeOp(uint64(i)+1, 0, 1)
		if seen[o] {
			t.Fatalf("mint %d reissued a token still held", i)
		}
		seen[o] = true
		if o.Steps() != 0 || o.stack != nil || o.lanes[0].Load() != 0 {
			t.Fatalf("mint %d carved a used token", i)
		}
		if prev == nil || uintptr(unsafe.Pointer(o)) != uintptr(unsafe.Pointer(prev))+unsafe.Sizeof(Op{}) {
			slabs++
		}
		prev = o
	}
	// Three slabs' worth of mints, the first from a partly carved slab.
	if slabs > 4 {
		t.Errorf("%d mints came from %d runs of adjacent tokens, want at most 4", 3*opSlabLen, slabs)
	}
}
