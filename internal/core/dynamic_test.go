package core

import (
	"math/rand"
	"testing"

	"pdmdict/internal/pdm"
)

// newDynamic builds a Theorem 7 dictionary on 2d disks.
func newDynamic(t *testing.T, d, b int, cfg DynamicConfig) (*DynamicDict, *pdm.Machine) {
	t.Helper()
	m := pdm.NewMachine(pdm.Config{D: 2 * d, B: b})
	dd, err := NewDynamic(m, cfg)
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	return dd, m
}

func TestDynamicBasicOps(t *testing.T) {
	dd, _ := newDynamic(t, 20, 64, DynamicConfig{Capacity: 500, SatWords: 2, Seed: 1})
	if _, ok := dd.Lookup(7); ok {
		t.Error("empty dict contains 7")
	}
	if err := dd.Insert(7, []pdm.Word{70, 71}); err != nil {
		t.Fatal(err)
	}
	sat, ok := dd.Lookup(7)
	if !ok || sat[0] != 70 || sat[1] != 71 {
		t.Fatalf("Lookup(7) = %v, %v", sat, ok)
	}
	if dd.Len() != 1 {
		t.Errorf("Len = %d", dd.Len())
	}
	if !dd.Delete(7) || dd.Delete(7) || dd.Contains(7) || dd.Len() != 0 {
		t.Error("delete sequence wrong")
	}
}

func TestDynamicUpdateInPlace(t *testing.T) {
	dd, _ := newDynamic(t, 20, 64, DynamicConfig{Capacity: 500, SatWords: 1, Seed: 2})
	if err := dd.Insert(5, []pdm.Word{1}); err != nil {
		t.Fatal(err)
	}
	if err := dd.Insert(5, []pdm.Word{2}); err != nil {
		t.Fatal(err)
	}
	if dd.Len() != 1 {
		t.Errorf("Len = %d after update", dd.Len())
	}
	if sat, _ := dd.Lookup(5); sat[0] != 2 {
		t.Errorf("update did not stick: %d", sat[0])
	}
	counts := dd.LevelCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1 {
		t.Errorf("level counts %v sum to %d, want 1", counts, total)
	}
}

func TestDynamicUnsuccessfulSearchIsOneIO(t *testing.T) {
	dd, m := newDynamic(t, 20, 64, DynamicConfig{Capacity: 1000, SatWords: 1, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		if err := dd.Insert(pdm.Word(rng.Uint64()%(1<<40)), []pdm.Word{1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		k := pdm.Word(rng.Uint64()%(1<<40)) | 1<<50
		before := m.Stats()
		if _, ok := dd.Lookup(k); ok {
			t.Fatal("phantom key")
		}
		if d := m.Stats().Sub(before).ParallelIOs; d != 1 {
			t.Fatalf("unsuccessful search = %d parallel I/Os, want 1 (Theorem 7)", d)
		}
	}
}

func TestDynamicSuccessfulSearchAveragesBelowOnePlusEpsilon(t *testing.T) {
	eps := 0.5
	dd, m := newDynamic(t, 20, 64, DynamicConfig{Capacity: 2000, SatWords: 1, Epsilon: eps, Seed: 5})
	rng := rand.New(rand.NewSource(6))
	keys := make([]pdm.Word, 2000)
	for i := range keys {
		keys[i] = pdm.Word(rng.Uint64() % (1 << 44))
		if err := dd.Insert(keys[i], []pdm.Word{pdm.Word(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Stats()
	worst := int64(0)
	for _, k := range keys {
		b := m.Stats()
		if _, ok := dd.Lookup(k); !ok {
			t.Fatalf("key %d lost", k)
		}
		if d := m.Stats().Sub(b).ParallelIOs; d > worst {
			worst = d
		}
	}
	total := m.Stats().Sub(before).ParallelIOs
	avg := float64(total) / float64(len(keys))
	if avg > 1+eps {
		t.Errorf("successful search average = %.3f I/Os, want ≤ 1+ɛ = %.2f", avg, 1+eps)
	}
	if worst > 2 {
		t.Errorf("worst successful search = %d I/Os, want ≤ 2", worst)
	}
}

func TestDynamicInsertAveragesBelowTwoPlusEpsilon(t *testing.T) {
	eps := 0.5
	dd, m := newDynamic(t, 20, 64, DynamicConfig{Capacity: 2000, SatWords: 1, Epsilon: eps, Seed: 7})
	rng := rand.New(rand.NewSource(8))
	before := m.Stats()
	n := 2000
	for i := 0; i < n; i++ {
		if err := dd.Insert(pdm.Word(rng.Uint64()%(1<<44)), []pdm.Word{1}); err != nil {
			t.Fatal(err)
		}
	}
	avg := float64(m.Stats().Sub(before).ParallelIOs) / float64(n)
	if avg > 2+eps {
		t.Errorf("insert average = %.3f I/Os, want ≤ 2+ɛ = %.2f", avg, 2+eps)
	}
}

func TestDynamicLevelOccupancyDecays(t *testing.T) {
	dd, _ := newDynamic(t, 20, 64, DynamicConfig{Capacity: 3000, SatWords: 1, Seed: 9})
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 3000; i++ {
		if err := dd.Insert(pdm.Word(rng.Uint64()%(1<<44)), []pdm.Word{1}); err != nil {
			t.Fatal(err)
		}
	}
	counts := dd.LevelCounts()
	if counts[0] < 2900 {
		t.Errorf("level 0 holds %d of 3000; first-fit should park almost everything there", counts[0])
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Errorf("level counts %v not decaying", counts)
			break
		}
	}
}

func TestDynamicLargeSatelliteChains(t *testing.T) {
	dd, _ := newDynamic(t, 20, 128, DynamicConfig{Capacity: 300, SatWords: 20, Seed: 11})
	rng := rand.New(rand.NewSource(12))
	oracle := map[pdm.Word][]pdm.Word{}
	for i := 0; i < 300; i++ {
		k := pdm.Word(rng.Uint64() % (1 << 40))
		sat := make([]pdm.Word, 20)
		for j := range sat {
			sat[j] = rng.Uint64()
		}
		if err := dd.Insert(k, sat); err != nil {
			t.Fatal(err)
		}
		oracle[k] = sat
	}
	for k, want := range oracle {
		got, ok := dd.Lookup(k)
		if !ok {
			t.Fatalf("key %d lost", k)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("key %d word %d = %d, want %d", k, j, got[j], want[j])
			}
		}
	}
}

func TestDynamicCapacityEnforced(t *testing.T) {
	dd, _ := newDynamic(t, 20, 64, DynamicConfig{Capacity: 10, SatWords: 0, Seed: 13})
	for i := 0; i < 10; i++ {
		if err := dd.Insert(pdm.Word(i*7+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := dd.Insert(999, nil); err != ErrFull {
		t.Errorf("over-capacity insert: %v, want ErrFull", err)
	}
	// Updates still allowed at capacity.
	if err := dd.Insert(8, nil); err != nil {
		t.Errorf("update at capacity: %v", err)
	}
}

func TestDynamicConfigErrors(t *testing.T) {
	mOdd := pdm.NewMachine(pdm.Config{D: 13, B: 64})
	if _, err := NewDynamic(mOdd, DynamicConfig{Capacity: 10}); err == nil {
		t.Error("odd disk count accepted")
	}
	mSmall := pdm.NewMachine(pdm.Config{D: 8, B: 64}) // d=4 ≤ 6(1+1/ɛ)
	if _, err := NewDynamic(mSmall, DynamicConfig{Capacity: 10}); err == nil {
		t.Error("d too small for Theorem 7 accepted")
	}
	m := pdm.NewMachine(pdm.Config{D: 40, B: 64})
	for _, cfg := range []DynamicConfig{
		{Capacity: 0},
		{Capacity: 10, SatWords: -1},
		{Capacity: 10, Epsilon: -0.5},
		{Capacity: 10, Ratio: 1.5},
		{Capacity: 10, Slack: 0.2},
	} {
		if _, err := NewDynamic(m, cfg); err == nil {
			t.Errorf("bad config accepted: %+v", cfg)
		}
	}
	mTiny := pdm.NewMachine(pdm.Config{D: 40, B: 2})
	if _, err := NewDynamic(mTiny, DynamicConfig{Capacity: 10, SatWords: 64}); err == nil {
		t.Error("field larger than block accepted")
	}
}

func TestDynamicDeleteFreesSpaceForReuse(t *testing.T) {
	// Fill to capacity, delete everything, fill again: space is reused.
	dd, _ := newDynamic(t, 20, 64, DynamicConfig{Capacity: 200, SatWords: 1, Seed: 14})
	for round := 0; round < 3; round++ {
		keys := make([]pdm.Word, 200)
		for i := range keys {
			keys[i] = pdm.Word(round*100000 + i*13 + 1)
			if err := dd.Insert(keys[i], []pdm.Word{pdm.Word(i)}); err != nil {
				t.Fatalf("round %d insert %d: %v", round, i, err)
			}
		}
		for _, k := range keys {
			if !dd.Delete(k) {
				t.Fatalf("round %d: delete failed", round)
			}
		}
		if dd.Len() != 0 {
			t.Fatalf("round %d: Len = %d", round, dd.Len())
		}
		for _, c := range dd.LevelCounts() {
			if c != 0 {
				t.Fatalf("round %d: level counts %v nonzero", round, dd.LevelCounts())
			}
		}
	}
}

func TestDynamicZeroSatellite(t *testing.T) {
	dd, _ := newDynamic(t, 20, 64, DynamicConfig{Capacity: 100, SatWords: 0, Seed: 15})
	if err := dd.Insert(3, nil); err != nil {
		t.Fatal(err)
	}
	if sat, ok := dd.Lookup(3); !ok || len(sat) != 0 {
		t.Errorf("zero-satellite lookup = %v, %v", sat, ok)
	}
}
