package pdm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// scriptInjector replays a fixed fault per address; nil entries pass.
type scriptInjector struct {
	faults map[Addr]Fault
	once   bool // clear each fault after firing
}

func (s *scriptInjector) Access(kind EventKind, a Addr) Fault {
	f, ok := s.faults[a]
	if !ok {
		return Fault{}
	}
	if s.once {
		delete(s.faults, a)
	}
	return f
}

func TestTryBatchReadFaultless(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 8})
	m.WriteBlock(Addr{Disk: 1, Block: 2}, []Word{7, 7, 7})
	got, err := m.TryBatchRead([]Addr{{Disk: 1, Block: 2}, {Disk: 0, Block: 0}})
	if err != nil {
		t.Fatalf("TryBatchRead on healthy machine: %v", err)
	}
	if got[0][0] != 7 || got[1][0] != 0 {
		t.Fatalf("wrong data: %v", got)
	}
	if m.Degraded() {
		t.Fatal("healthy machine reports degraded")
	}
}

func TestTryBatchReadFailStop(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 8})
	for d := 0; d < 4; d++ {
		m.WriteBlock(Addr{Disk: d, Block: 0}, []Word{Word(d + 1)})
	}
	m.SetFaultInjector(&scriptInjector{faults: map[Addr]Fault{
		{Disk: 2, Block: 0}: {Kind: FaultFailStop},
	}})
	addrs := []Addr{{Disk: 0, Block: 0}, {Disk: 2, Block: 0}, {Disk: 3, Block: 0}}
	got, err := m.TryBatchRead(addrs)
	be, ok := AsBatchError(err)
	if !ok || len(be.Blocks) != 1 {
		t.Fatalf("want one BlockError, got %v", err)
	}
	b := be.Blocks[0]
	if b.Index != 1 || b.Addr != addrs[1] || !errors.Is(b.Err, ErrDiskFailed) {
		t.Fatalf("wrong BlockError: %+v", b)
	}
	if got[1] != nil {
		t.Fatal("failed read returned data")
	}
	if got[0][0] != 1 || got[2][0] != 4 {
		t.Fatalf("surviving reads wrong: %v", got)
	}
	if !m.Degraded() || m.FaultCount() != 1 {
		t.Fatalf("degraded=%v faults=%d, want true/1", m.Degraded(), m.FaultCount())
	}
	m.ClearDegraded()
	if m.Degraded() {
		t.Fatal("ClearDegraded did not clear")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 4})
	a := Addr{Disk: 0, Block: 3}
	m.WriteBlock(a, []Word{1, 2, 3, 4})
	m.SetFaultInjector(&scriptInjector{
		faults: map[Addr]Fault{a: {Kind: FaultCorrupt, Bit: 5}},
		once:   true,
	})
	_, err := m.TryBatchRead([]Addr{a})
	be, ok := AsBatchError(err)
	if !ok || !errors.Is(be.Blocks[0].Err, ErrChecksum) {
		t.Fatalf("want checksum error, got %v", err)
	}
	if bad := m.VerifyChecksums(); len(bad) != 1 || bad[0] != a {
		t.Fatalf("VerifyChecksums = %v, want [%v]", bad, a)
	}
	// Rewriting the block heals it: writes recompute the checksum.
	m.WriteBlock(a, []Word{1, 2, 3, 4})
	if bad := m.VerifyChecksums(); len(bad) != 0 {
		t.Fatalf("after rewrite, VerifyChecksums = %v, want none", bad)
	}
	if _, err := m.TryBatchRead([]Addr{a}); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

func TestTryBatchWriteSkipsFailedDisk(t *testing.T) {
	m := NewMachine(Config{D: 3, B: 4})
	a0, a1 := Addr{Disk: 0, Block: 0}, Addr{Disk: 1, Block: 0}
	m.SetFaultInjector(&scriptInjector{faults: map[Addr]Fault{a1: {Kind: FaultFailStop}}})
	err := m.TryBatchWriteOp(nil, []BlockWrite{
		{Addr: a0, Data: []Word{11}},
		{Addr: a1, Data: []Word{22}},
	})
	be, ok := AsBatchError(err)
	if !ok || len(be.Blocks) != 1 || !errors.Is(be.Blocks[0].Err, ErrDiskFailed) {
		t.Fatalf("want one ErrDiskFailed, got %v", err)
	}
	if m.Peek(a0)[0] != 11 {
		t.Fatal("surviving write not applied")
	}
	if m.Peek(a1)[0] != 0 {
		t.Fatal("write to failed disk was applied")
	}
}

func TestStallChargesExtraSteps(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 4})
	a := Addr{Disk: 0, Block: 0}
	m.SetFaultInjector(&scriptInjector{
		faults: map[Addr]Fault{a: {Kind: FaultStall, Stall: 5}},
		once:   true,
	})
	before := m.Stats().ParallelIOs
	if _, err := m.TryBatchRead([]Addr{a}); err != nil {
		t.Fatalf("stalled read errored: %v", err)
	}
	if got := m.Stats().ParallelIOs - before; got != 6 {
		t.Fatalf("stalled batch cost %d parallel I/Os, want 1+5", got)
	}
	if m.Degraded() {
		t.Fatal("stall alone must not mark the machine degraded")
	}
	if m.FaultCount() != 1 {
		t.Fatalf("stall not counted as fault event: %d", m.FaultCount())
	}
}

func TestWipeDisk(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 4})
	m.WriteBlock(Addr{Disk: 1, Block: 0}, []Word{9})
	m.WipeDisk(1)
	if m.Peek(Addr{Disk: 1, Block: 0})[0] != 0 {
		t.Fatal("wiped disk still holds data")
	}
	if bad := m.VerifyChecksums(); len(bad) != 0 {
		t.Fatalf("wiped disk fails checksum scan: %v", bad)
	}
}

// traceHook records the fault event stream.
type traceHook struct{ lines []string }

func (h *traceHook) Event(e Event) {
	h.lines = append(h.lines, fmt.Sprintf("%s %s %v %d", e.Kind, e.Tag, e.Addrs, e.Steps))
}

// The same injector decisions must yield the same fault.* event
// sequence, and stall cost must ride on the fault.stall event, keeping
// per-tag sums a partition of the total.
func TestFaultEventsDeterministic(t *testing.T) {
	run := func() ([]string, int64) {
		m := NewMachine(Config{D: 3, B: 4})
		h := &traceHook{}
		m.SetHook(h)
		m.SetFaultInjector(&scriptInjector{faults: map[Addr]Fault{
			{Disk: 0, Block: 1}: {Kind: FaultFailStop},
			{Disk: 1, Block: 0}: {Kind: FaultStall, Stall: 2},
		}})
		for i := 0; i < 3; i++ {
			if _, err := m.TryBatchRead([]Addr{{Disk: 0, Block: 1}, {Disk: 1, Block: 0}, {Disk: 2, Block: 0}}); err == nil {
				t.Fatal("expected fail-stop fault to surface as a batch error")
			}
		}
		return h.lines, m.Stats().ParallelIOs
	}
	l1, ios1 := run()
	l2, ios2 := run()
	if !equalStrings(l1, l2) || ios1 != ios2 {
		t.Fatalf("fault traces diverge:\n%v\n%v", l1, l2)
	}
}

// eventSum records Steps across all events.
type eventSum struct{ steps int64 }

func (h *eventSum) Event(e Event) { h.steps += int64(e.Steps) }

// Summing Steps over every event (batch events + fault.stall events)
// must reproduce the machine's accounted ParallelIOs: stall cost rides
// on the fault.stall event, not the batch's own event.
func TestEventStepsPartitionTotal(t *testing.T) {
	m := NewMachine(Config{D: 3, B: 4})
	h := &eventSum{}
	m.SetHook(h)
	m.SetFaultInjector(&scriptInjector{faults: map[Addr]Fault{
		{Disk: 1, Block: 0}: {Kind: FaultStall, Stall: 2},
		{Disk: 2, Block: 0}: {Kind: FaultFailStop},
	}})
	for i := 0; i < 4; i++ {
		if _, err := m.TryBatchRead([]Addr{{Disk: 0, Block: 0}, {Disk: 1, Block: 0}, {Disk: 2, Block: 0}}); err == nil {
			t.Fatal("expected fail-stop fault to surface as a batch error")
		}
		if err := m.TryBatchWriteOp(nil, []BlockWrite{{Addr: Addr{Disk: 0, Block: 1}, Data: []Word{1}}}); err != nil {
			t.Fatalf("unfaulted write failed: %v", err)
		}
	}
	if got := m.Stats().ParallelIOs; h.steps != got {
		t.Fatalf("event step sum %d != accounted total %d", h.steps, got)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Snapshot round-trip must preserve checksums (recomputed on load).
func TestSnapshotRecomputesChecksums(t *testing.T) {
	m := NewMachine(Config{D: 3, B: 8})
	for d := 0; d < 3; d++ {
		m.WriteBlock(Addr{Disk: d, Block: d}, []Word{Word(d * 10)})
	}
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if bad := m2.VerifyChecksums(); len(bad) != 0 {
		t.Fatalf("loaded machine fails checksum scan: %v", bad)
	}
	if _, err := m2.TryBatchRead([]Addr{{Disk: 2, Block: 2}}); err != nil {
		t.Fatalf("verified read on loaded machine: %v", err)
	}
}
