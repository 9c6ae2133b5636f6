package core

import (
	"math/rand"
	"testing"

	"pdmdict/internal/pdm"
)

// newOneProbe builds a Section 6 structure: (levels+1)·d disks.
func newOneProbe(t *testing.T, d, b int, cfg OneProbeConfig) (*OneProbeDict, *pdm.Machine) {
	t.Helper()
	levels := cfg.Levels
	if levels == 0 {
		levels = 3
	}
	m := pdm.NewMachine(pdm.Config{D: (levels + 1) * d, B: b})
	op, err := NewOneProbe(m, cfg)
	if err != nil {
		t.Fatalf("NewOneProbe: %v", err)
	}
	return op, m
}

func TestOneProbeBasicOps(t *testing.T) {
	op, _ := newOneProbe(t, 12, 64, OneProbeConfig{Capacity: 300, SatWords: 2, Seed: 1})
	if err := op.Insert(7, []pdm.Word{70, 71}); err != nil {
		t.Fatal(err)
	}
	sat, ok := op.Lookup(7)
	if !ok || sat[0] != 70 || sat[1] != 71 {
		t.Fatalf("Lookup = %v %v", sat, ok)
	}
	if err := op.Insert(7, []pdm.Word{80, 81}); err != nil {
		t.Fatal(err)
	}
	if op.Len() != 1 {
		t.Errorf("Len = %d after update", op.Len())
	}
	if sat, _ := op.Lookup(7); sat[0] != 80 {
		t.Error("update did not stick")
	}
	if !op.Delete(7) || op.Delete(7) || op.Contains(7) || op.Len() != 0 {
		t.Error("delete sequence wrong")
	}
}

func TestOneProbeLookupAlwaysOneIO(t *testing.T) {
	// The whole point: EVERY lookup — hit, miss, shallow, deep — costs
	// exactly one parallel I/O.
	op, m := newOneProbe(t, 12, 64, OneProbeConfig{Capacity: 1500, SatWords: 1, Slack: 4, Seed: 2})
	rng := rand.New(rand.NewSource(3))
	keys := make([]pdm.Word, 1500)
	for i := range keys {
		keys[i] = pdm.Word(rng.Uint64() % (1 << 44))
		if err := op.Insert(keys[i], []pdm.Word{pdm.Word(i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// With tight slack some keys must sit below level 1 — the case the
	// §4.3 structure pays a second I/O for.
	counts := op.LevelCounts()
	deep := 0
	for _, c := range counts[1:] {
		deep += c
	}
	if deep == 0 {
		t.Fatalf("level counts %v: no deep keys; tighten slack for a meaningful test", counts)
	}
	for _, k := range keys {
		before := m.Stats()
		if _, ok := op.Lookup(k); !ok {
			t.Fatalf("key %d lost", k)
		}
		if d := m.Stats().Sub(before).ParallelIOs; d != 1 {
			t.Fatalf("lookup = %d parallel I/Os, want exactly 1 (§6 one-probe)", d)
		}
	}
	before := m.Stats()
	op.Lookup(1 << 55)
	if d := m.Stats().Sub(before).ParallelIOs; d != 1 {
		t.Errorf("miss = %d parallel I/Os, want 1", d)
	}
}

func TestOneProbeUpdatesAlwaysTwoIOs(t *testing.T) {
	op, m := newOneProbe(t, 12, 64, OneProbeConfig{Capacity: 800, SatWords: 1, Slack: 4, Seed: 4})
	rng := rand.New(rand.NewSource(5))
	keys := make([]pdm.Word, 800)
	for i := range keys {
		keys[i] = pdm.Word(rng.Uint64() % (1 << 44))
	}
	worst := int64(0)
	for i, k := range keys {
		before := m.Stats()
		if err := op.Insert(k, []pdm.Word{pdm.Word(i)}); err != nil {
			t.Fatal(err)
		}
		if d := m.Stats().Sub(before).ParallelIOs; d > worst {
			worst = d
		}
	}
	if worst != 2 {
		t.Errorf("worst insert = %d parallel I/Os, want 2", worst)
	}
	// Updates of deep keys are also 2 I/Os (old chain is in the batch).
	for _, k := range keys[:100] {
		before := m.Stats()
		if err := op.Insert(k, []pdm.Word{9}); err != nil {
			t.Fatal(err)
		}
		if d := m.Stats().Sub(before).ParallelIOs; d != 2 {
			t.Fatalf("update = %d parallel I/Os, want 2", d)
		}
	}
	// Deletes: also 2.
	before := m.Stats()
	if !op.Delete(keys[0]) {
		t.Fatal("delete failed")
	}
	if d := m.Stats().Sub(before).ParallelIOs; d != 2 {
		t.Errorf("delete = %d parallel I/Os, want 2", d)
	}
}

func TestOneProbeFullBandwidth(t *testing.T) {
	// A satellite close to the per-group stripe budget still travels in
	// a single parallel I/O.
	d, b := 12, 128
	sigma := 100 // words; chain capacity ≈ t·fieldWords ≈ d·B/(levels+1) scale
	op, m := newOneProbe(t, d, b, OneProbeConfig{Capacity: 100, SatWords: sigma, Seed: 6})
	sat := make([]pdm.Word, sigma)
	for i := range sat {
		sat[i] = pdm.Word(1000 + i)
	}
	if err := op.Insert(42, sat); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	got, ok := op.Lookup(42)
	if !ok {
		t.Fatal("key lost")
	}
	if d := m.Stats().Sub(before).ParallelIOs; d != 1 {
		t.Errorf("big-satellite lookup = %d parallel I/Os, want 1", d)
	}
	for i := range sat {
		if got[i] != sat[i] {
			t.Fatalf("satellite word %d = %d, want %d", i, got[i], sat[i])
		}
	}
}

func TestOneProbeConfigErrors(t *testing.T) {
	if _, err := NewOneProbe(pdm.NewMachine(pdm.Config{D: 13, B: 64}), OneProbeConfig{Capacity: 10}); err == nil {
		t.Error("indivisible disk count accepted")
	}
	if _, err := NewOneProbe(pdm.NewMachine(pdm.Config{D: 8, B: 64}), OneProbeConfig{Capacity: 10}); err == nil {
		t.Error("d=2 accepted")
	}
	m := pdm.NewMachine(pdm.Config{D: 48, B: 64})
	for _, cfg := range []OneProbeConfig{
		{Capacity: 0},
		{Capacity: 10, SatWords: -1},
		{Capacity: 10, Levels: -1},
		{Capacity: 10, Slack: 0.5},
		{Capacity: 10, Ratio: 2},
	} {
		if _, err := NewOneProbe(m, cfg); err == nil {
			t.Errorf("bad config accepted: %+v", cfg)
		}
	}
}

func TestOneProbeCapacityAndReuse(t *testing.T) {
	op, _ := newOneProbe(t, 12, 64, OneProbeConfig{Capacity: 50, SatWords: 1, Seed: 7})
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			if err := op.Insert(pdm.Word(round*1000+i*3+1), []pdm.Word{1}); err != nil {
				t.Fatalf("round %d insert %d: %v", round, i, err)
			}
		}
		if err := op.Insert(99999, []pdm.Word{1}); err != ErrFull {
			t.Errorf("over-capacity insert: %v", err)
		}
		for i := 0; i < 50; i++ {
			if !op.Delete(pdm.Word(round*1000 + i*3 + 1)) {
				t.Fatalf("round %d delete %d failed", round, i)
			}
		}
		if op.Len() != 0 {
			t.Fatalf("round %d: Len = %d", round, op.Len())
		}
	}
}
