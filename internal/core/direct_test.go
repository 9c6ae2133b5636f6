package core

import (
	"testing"
	"testing/quick"

	"pdmdict/internal/pdm"
)

func TestDirectDictBasics(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 4, B: 16})
	dd, err := NewDirect(m, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dd.Lookup(5); ok {
		t.Error("empty dict contains 5")
	}
	if err := dd.Insert(5, []pdm.Word{50, 51}); err != nil {
		t.Fatal(err)
	}
	sat, ok := dd.Lookup(5)
	if !ok || sat[0] != 50 || sat[1] != 51 {
		t.Fatalf("Lookup = %v %v", sat, ok)
	}
	if err := dd.Insert(5, []pdm.Word{60, 61}); err != nil {
		t.Fatal(err)
	}
	if dd.Len() != 1 {
		t.Errorf("Len = %d after update", dd.Len())
	}
	if !dd.Delete(5) || dd.Delete(5) || dd.Contains(5) {
		t.Error("delete sequence wrong")
	}
	// Keys outside the universe.
	if err := dd.Insert(1000, []pdm.Word{1, 2}); err == nil {
		t.Error("out-of-universe insert accepted")
	}
	if dd.Contains(5000) || dd.Delete(5000) {
		t.Error("out-of-universe key behaved as present")
	}
}

func TestDirectDictCosts(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 4, B: 16})
	dd, err := NewDirect(m, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		before := m.Stats()
		if err := dd.Insert(pdm.Word(i*8), []pdm.Word{pdm.Word(i)}); err != nil {
			t.Fatal(err)
		}
		if d := m.Stats().Sub(before).ParallelIOs; d != 2 {
			t.Fatalf("insert = %d parallel I/Os, want 2", d)
		}
	}
	for i := 0; i < 500; i++ {
		before := m.Stats()
		if !dd.Contains(pdm.Word(i * 8)) {
			t.Fatal("key lost")
		}
		if d := m.Stats().Sub(before).ParallelIOs; d != 1 {
			t.Fatalf("lookup = %d parallel I/Os, want 1", d)
		}
	}
}

func TestDirectDictErrors(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 2, B: 4})
	if _, err := NewDirect(m, 0, 1); err == nil {
		t.Error("empty universe accepted")
	}
	if _, err := NewDirect(m, 10, -1); err == nil {
		t.Error("negative SatWords accepted")
	}
	if _, err := NewDirect(m, 10, 10); err == nil {
		t.Error("slot larger than block accepted")
	}
	dd, _ := NewDirect(m, 10, 1)
	if err := dd.Insert(3, nil); err == nil {
		t.Error("wrong satellite width accepted")
	}
}

// Property: DirectDict agrees with a map oracle over its whole universe.
func TestPropertyDirectMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		m := pdm.NewMachine(pdm.Config{D: 3, B: 8})
		dd, err := NewDirect(m, 256, 1)
		if err != nil {
			return false
		}
		oracle := map[pdm.Word]pdm.Word{}
		for _, op := range ops {
			k := pdm.Word(op % 256)
			switch op % 3 {
			case 0:
				v := pdm.Word(op)
				if dd.Insert(k, []pdm.Word{v}) == nil {
					oracle[k] = v
				}
			case 1:
				_, okOracle := oracle[k]
				if dd.Delete(k) != okOracle {
					return false
				}
				delete(oracle, k)
			case 2:
				sat, ok := dd.Lookup(k)
				v, okOracle := oracle[k]
				if ok != okOracle || (ok && sat[0] != v) {
					return false
				}
			}
		}
		return dd.Len() == len(oracle)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLookupBatchMatchesSingles(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 8, B: 64})
	bd, err := NewBasic(m, BasicConfig{Capacity: 300, SatWords: 1, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		bd.Insert(pdm.Word(i*3+1), []pdm.Word{pdm.Word(i)})
	}
	keys := make([]pdm.Word, 0, 100)
	for i := 0; i < 100; i++ {
		if i%4 == 3 {
			keys = append(keys, pdm.Word(1<<50+i)) // misses interleaved
		} else {
			keys = append(keys, pdm.Word(i*3+1))
		}
	}
	sats, oks := make([][]pdm.Word, len(keys)), make([]bool, len(keys))
	bd.LookupBatchInto(nil, nil, keys, sats, oks)
	for i, k := range keys {
		wantSat, wantOk := bd.Lookup(k)
		if oks[i] != wantOk {
			t.Fatalf("key %d: batch ok=%v single ok=%v", k, oks[i], wantOk)
		}
		if wantOk && sats[i][0] != wantSat[0] {
			t.Fatalf("key %d: batch sat=%v single sat=%v", k, sats[i], wantSat)
		}
	}
}

func TestLookupBatchDedupesHotKeys(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 8, B: 64})
	bd, err := NewBasic(m, BasicConfig{Capacity: 200, SatWords: 1, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		bd.Insert(pdm.Word(i+1), []pdm.Word{1})
	}
	// 64 requests for the SAME key: one parallel I/O, not 64.
	hot := make([]pdm.Word, 64)
	for i := range hot {
		hot[i] = 7
	}
	sats, oks := make([][]pdm.Word, len(hot)), make([]bool, len(hot))
	before := m.Stats()
	bd.LookupBatchInto(nil, nil, hot, sats, oks)
	cost := m.Stats().Sub(before).ParallelIOs
	if cost != 1 {
		t.Errorf("64 duplicate lookups cost %d parallel I/Os, want 1", cost)
	}
	for _, ok := range oks {
		if !ok {
			t.Fatal("hot key missing")
		}
	}
	// Mixed batch: strictly cheaper than one I/O per key when keys repeat.
	mixed := make([]pdm.Word, 0, 60)
	for i := 0; i < 60; i++ {
		mixed = append(mixed, pdm.Word(i%10+1)) // 10 distinct keys × 6
	}
	before = m.Stats()
	bd.LookupBatchInto(nil, nil, mixed, sats, oks)
	cost = m.Stats().Sub(before).ParallelIOs
	if cost >= 60 {
		t.Errorf("mixed batch cost %d parallel I/Os; deduplication ineffective", cost)
	}
}
