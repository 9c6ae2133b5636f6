package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"pdmdict/internal/pdm"
)

func newDict(t *testing.T, cfg DictConfig) *Dict {
	t.Helper()
	d, err := NewDict(cfg)
	if err != nil {
		t.Fatalf("NewDict: %v", err)
	}
	return d
}

func TestDictBasicOps(t *testing.T) {
	d := newDict(t, DictConfig{InitialCapacity: 50, SatWords: 1, Seed: 1})
	if err := d.Insert(10, []pdm.Word{100}); err != nil {
		t.Fatal(err)
	}
	if sat, ok := d.Lookup(10); !ok || sat[0] != 100 {
		t.Fatalf("Lookup = %v, %v", sat, ok)
	}
	if !d.Delete(10) || d.Delete(10) || d.Contains(10) {
		t.Error("delete sequence wrong")
	}
}

func TestDictGrowsPastInitialCapacity(t *testing.T) {
	d := newDict(t, DictConfig{InitialCapacity: 64, SatWords: 1, Seed: 2})
	n := 1000 // ~4 doublings past the initial capacity
	for i := 0; i < n; i++ {
		if err := d.Insert(pdm.Word(i*131+7), []pdm.Word{pdm.Word(i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for i := 0; i < n; i++ {
		sat, ok := d.Lookup(pdm.Word(i*131 + 7))
		if !ok || sat[0] != pdm.Word(i) {
			t.Fatalf("key %d lost or wrong after growth: %v %v", i, sat, ok)
		}
	}
	if d.Stats().Rebuilds == 0 {
		t.Error("no rebuilds recorded despite 15x growth")
	}
}

func TestDictWorstCaseOpIsConstant(t *testing.T) {
	// The whole point of worst-case global rebuilding: no operation —
	// including those during migrations — may cost more than a constant
	// number of parallel I/Os.
	d := newDict(t, DictConfig{InitialCapacity: 64, SatWords: 1, MigrateBatch: 4, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		k := pdm.Word(rng.Uint64() % (1 << 32))
		switch i % 4 {
		case 0, 1:
			d.Insert(k, []pdm.Word{1})
		case 2:
			d.Lookup(k)
		case 3:
			d.Delete(k)
		}
	}
	// Each migrated key costs ≤ ~10 I/Os (bucket scan + lookup + insert +
	// delete across two machines) and MigrateBatch=4, plus the op itself:
	// a constant, bounded here at 60.
	if w := d.Stats().WorstOp; w > 60 {
		t.Errorf("worst op = %d parallel I/Os; global rebuilding should keep this constant", w)
	}
	if d.Stats().Ops != 2000 {
		t.Errorf("Ops = %d", d.Stats().Ops)
	}
}

func TestDictUpdateDuringMigrationNoDuplicates(t *testing.T) {
	d := newDict(t, DictConfig{InitialCapacity: 32, SatWords: 1, MigrateBatch: 1, Seed: 5})
	// Fill past capacity to force a long-running migration: after 48
	// inserts only 16 of the 32 original keys have migrated.
	keys := make([]pdm.Word, 48)
	for i := range keys {
		keys[i] = pdm.Word(i*17 + 3)
		if err := d.Insert(keys[i], []pdm.Word{pdm.Word(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Migrating() {
		t.Fatal("expected an in-progress migration")
	}
	// Update every key mid-migration; values must be the new ones and
	// the count must not double.
	for i, k := range keys {
		if err := d.Insert(k, []pdm.Word{pdm.Word(1000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if d.Len() != len(keys) {
		t.Fatalf("Len = %d after updates, want %d", d.Len(), len(keys))
	}
	for i, k := range keys {
		sat, ok := d.Lookup(k)
		if !ok || sat[0] != pdm.Word(1000+i) {
			t.Fatalf("key %d: got %v %v, want %d", k, sat, ok, 1000+i)
		}
	}
}

func TestDictDeleteDuringMigration(t *testing.T) {
	d := newDict(t, DictConfig{InitialCapacity: 32, SatWords: 0, MigrateBatch: 1, Seed: 6})
	keys := make([]pdm.Word, 48)
	for i := range keys {
		keys[i] = pdm.Word(i*7 + 1)
		if err := d.Insert(keys[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if !d.Delete(k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", d.Len())
	}
	for _, k := range keys {
		if d.Contains(k) {
			t.Fatalf("key %d survived deletion", k)
		}
	}
}

func TestDictMigrationEventuallyCompletes(t *testing.T) {
	d := newDict(t, DictConfig{InitialCapacity: 32, SatWords: 0, MigrateBatch: 2, Seed: 7})
	for i := 0; i < 33; i++ { // trigger migration
		if err := d.Insert(pdm.Word(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Migrating() {
		t.Fatal("migration not started")
	}
	// Lookups also drive migration? No — only updates do. Drive with
	// no-op deletes of absent keys.
	for i := 0; i < 100 && d.Migrating(); i++ {
		d.Delete(pdm.Word(1 << 40))
	}
	if d.Migrating() {
		t.Error("migration did not complete after 100 update operations")
	}
	for i := 0; i < 33; i++ {
		if !d.Contains(pdm.Word(i + 1)) {
			t.Fatalf("key %d lost by migration", i+1)
		}
	}
}

func TestDictConfigErrors(t *testing.T) {
	if _, err := NewDict(DictConfig{}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewDict(DictConfig{InitialCapacity: 10, MigrateBatch: -1}); err == nil {
		t.Error("negative MigrateBatch accepted")
	}
	if _, err := NewDict(DictConfig{InitialCapacity: 10, Degree: 4}); err == nil {
		t.Error("degree below the Theorem 7 constraint accepted")
	}
}

func TestDictOverOneProbe(t *testing.T) {
	d := newDict(t, DictConfig{InitialCapacity: 64, SatWords: 1, OneProbe: true, Seed: 20})
	// Grow through two rebuilds; every lookup — including during a live
	// migration — must cost exactly one parallel I/O under the
	// max-across-machines model.
	n := 300
	for i := 0; i < n; i++ {
		if err := d.Insert(pdm.Word(i*9+2), []pdm.Word{pdm.Word(i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if d.Stats().Rebuilds == 0 && !d.Migrating() {
		t.Fatal("no growth happened; test vacuous")
	}
	worstLookup := int64(0)
	for i := 0; i < n; i++ {
		before := d.Stats().ParallelIOs
		sat, ok := d.Lookup(pdm.Word(i*9 + 2))
		if !ok || sat[0] != pdm.Word(i) {
			t.Fatalf("key %d = %v %v", i*9+2, sat, ok)
		}
		if c := d.Stats().ParallelIOs - before; c > worstLookup {
			worstLookup = c
		}
	}
	if worstLookup != 1 {
		t.Errorf("worst lookup = %d parallel I/Os; one-probe building block should give exactly 1", worstLookup)
	}
	// Snapshot round trip with the OneProbe flavour, mid-migration if
	// one is live.
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadDict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != d.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), d.Len())
	}
	for i := 0; i < n; i += 17 {
		if sat, ok := restored.Lookup(pdm.Word(i*9 + 2)); !ok || sat[0] != pdm.Word(i) {
			t.Fatalf("restored key %d = %v %v", i*9+2, sat, ok)
		}
	}
}

// Property: Dict agrees with a map oracle across growth and shrink.
func TestPropertyDictMatchesMap(t *testing.T) {
	f := func(ops []uint32) bool {
		d, err := NewDict(DictConfig{InitialCapacity: 16, SatWords: 1, MigrateBatch: 2, Seed: 8})
		if err != nil {
			return false
		}
		oracle := map[pdm.Word]pdm.Word{}
		for _, op := range ops {
			k := pdm.Word(op % 211)
			switch op % 3 {
			case 0:
				v := pdm.Word(op)
				if d.Insert(k, []pdm.Word{v}) == nil {
					oracle[k] = v
				}
			case 1:
				_, okOracle := oracle[k]
				if d.Delete(k) != okOracle {
					return false
				}
				delete(oracle, k)
			case 2:
				sat, ok := d.Lookup(k)
				v, okOracle := oracle[k]
				if ok != okOracle || (ok && sat[0] != v) {
					return false
				}
			}
		}
		return d.Len() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDictOpStraddlingMigration follows hooked Dict operations through a
// migration's last steps, each touching the draining and the filling
// machine: every op hands its borrowed span stack back, and its
// per-machine cost is what the two machines charged — the same with the
// hook as without.
func TestDictOpStraddlingMigration(t *testing.T) {
	cfg := DictConfig{InitialCapacity: 32, SatWords: 0, MigrateBatch: 2, Seed: 7}
	hooked, plain := newDict(t, cfg), newDict(t, cfg)
	hooked.SetHook(nopHook{})
	for _, d := range []*Dict{hooked, plain} {
		for i := 0; i < 33; i++ {
			if err := d.Insert(pdm.Word(i+1), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	finished := false
	for i := 0; i < 100 && hooked.Migrating(); i++ {
		a, b := hooked.active.machine(), hooked.next.machine()
		stepsA, stepsB := a.StepCount(), b.StepCount()
		idle := a.IdleSpanStacks() + b.IdleSpanStacks()
		if idle == 0 {
			t.Fatalf("op %d: the earlier hooked ops left no idle span stack", i)
		}
		op, twin := pdm.MakeOp(uint64(i+1), 0, 1), pdm.MakeOp(uint64(i+1), 0, 1)
		hooked.DeleteOp(op, 1<<40)
		plain.DeleteOp(twin, 1<<40)
		if got := a.IdleSpanStacks() + b.IdleSpanStacks(); got != idle {
			t.Fatalf("op %d: the machines hold %d idle span stacks after it, %d before", i, got, idle)
		}
		da, db := a.StepCount()-stepsA, b.StepCount()-stepsB
		if op.Steps() != da+db || op.MaxMachineSteps() != max(da, db) {
			t.Fatalf("op %d: Steps %d, MaxMachineSteps %d; the machines charged %d and %d",
				i, op.Steps(), op.MaxMachineSteps(), da, db)
		}
		if op.MaxMachineSteps() != twin.MaxMachineSteps() || op.Steps() != twin.Steps() {
			t.Fatalf("op %d: hooked cost %d/%d, unhooked %d/%d", i,
				op.MaxMachineSteps(), op.Steps(), twin.MaxMachineSteps(), twin.Steps())
		}
		finished = !hooked.Migrating()
	}
	if !finished || plain.Migrating() {
		t.Fatal("the migration did not finish inside an operation on both dictionaries")
	}
}
