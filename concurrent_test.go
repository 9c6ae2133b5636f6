package pdmdict

import (
	"sync"
	"testing"
)

// unitCosts measures the per-operation I/O deltas of a structure by
// running one op in isolation. Every Basic/OneProbe operation has an
// order-independent cost (a fixed number of read/write batches of fixed
// shape), so totals under concurrency must equal goroutine-count ×
// per-goroutine op counts × these units.
type unitCosts struct {
	pios, reads, writes int64
}

func delta(before, after IOStats) unitCosts {
	return unitCosts{
		pios:   after.ParallelIOs - before.ParallelIOs,
		reads:  after.BlockReads - before.BlockReads,
		writes: after.BlockWrites - before.BlockWrites,
	}
}

// concurrentStatsExact runs G goroutines, each inserting then looking
// up its own key range, and checks the merged machine counters against
// the measured unit costs.
func concurrentStatsExact(t *testing.T, dict interface {
	Dictionary
	IOStats() IOStats
}, machineOf func() interface{ VerifyChecksums() []Addr }) {
	t.Helper()
	const G = 8
	const perG = 40

	// Measure unit costs with two sacrificial keys outside every
	// goroutine's range.
	s0 := dict.IOStats()
	if err := dict.Insert(1_000_000, []Word{42}); err != nil {
		t.Fatal(err)
	}
	insCost := delta(s0, dict.IOStats())
	s1 := dict.IOStats()
	if _, ok := dict.Lookup(1_000_000); !ok {
		t.Fatal("warmup key missing")
	}
	lookCost := delta(s1, dict.IOStats())
	if lookCost.writes != 0 {
		t.Fatalf("lookup wrote %d blocks", lookCost.writes)
	}

	base := dict.IOStats()
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo := Word(1 + g*perG)
			for k := lo; k < lo+perG; k++ {
				if err := dict.Insert(k, []Word{k * 7}); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
			}
			for k := lo; k < lo+perG; k++ {
				sat, ok := dict.Lookup(k)
				if !ok || sat[0] != k*7 {
					t.Errorf("lookup %d: ok=%v sat=%v", k, ok, sat)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	got := delta(base, dict.IOStats())
	want := unitCosts{
		pios:   G * perG * (insCost.pios + lookCost.pios),
		reads:  G * perG * (insCost.reads + lookCost.reads),
		writes: G * perG * insCost.writes,
	}
	if got != want {
		t.Errorf("merged stats after %d goroutines × %d ops: got %+v, want %+v", G, perG, got, want)
	}
	if dict.Len() != G*perG+1 {
		t.Errorf("Len = %d, want %d", dict.Len(), G*perG+1)
	}
	if bad := machineOf().VerifyChecksums(); len(bad) != 0 {
		t.Errorf("VerifyChecksums reported %v", bad)
	}
}

func TestConcurrentBasicStatsExact(t *testing.T) {
	d, err := NewBasic(BasicOptions{Options: Options{Capacity: 2000, SatWords: 1, Universe: 1 << 21, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	concurrentStatsExact(t, d, func() interface{ VerifyChecksums() []Addr } { return d.Machine() })
}

func TestConcurrentOneProbeStatsExact(t *testing.T) {
	d, err := NewOneProbe(OneProbeOptions{Options: Options{Capacity: 2000, SatWords: 1, Universe: 1 << 21, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	concurrentStatsExact(t, d, func() interface{ VerifyChecksums() []Addr } { return d.Machine() })
}

// TestConcurrentDictMixed exercises the fully dynamic wrapper — which
// rebuilds itself mid-stream — under mixed concurrent traffic: the
// wrapper exposes no machine, so the assertions are data integrity and
// the exactly-counted parts of its ledger.
func TestConcurrentDictMixed(t *testing.T) {
	d, err := New(Options{Capacity: 64, SatWords: 1, Universe: 1 << 21, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const G = 8
	const perG = 60
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo := Word(1 + g*perG)
			for k := lo; k < lo+perG; k++ {
				if err := d.Insert(k, []Word{k * 3}); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
				// Interleave reads of already-inserted keys from this
				// goroutine's range, single and batched.
				if sat, ok := d.Lookup(lo); !ok || sat[0] != lo*3 {
					t.Errorf("lookup %d during inserts: ok=%v sat=%v", lo, ok, sat)
					return
				}
				if k >= lo+2 {
					sats, oks := d.LookupBatch([]Word{lo, k - 1, k + 1_000_000})
					if !oks[0] || !oks[1] || oks[2] {
						t.Errorf("LookupBatch oks = %v", oks)
						return
					}
					if sats[0][0] != lo*3 || sats[1][0] != (k-1)*3 {
						t.Errorf("LookupBatch sats = %v", sats)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if d.Len() != G*perG {
		t.Errorf("Len = %d, want %d", d.Len(), G*perG)
	}
	// Every key still resolves after the dust (and the rebuilds) settle.
	keys := make([]Word, 0, G*perG)
	for g := 0; g < G; g++ {
		lo := Word(1 + g*perG)
		for k := lo; k < lo+perG; k++ {
			keys = append(keys, k)
		}
	}
	sats, oks := d.LookupBatch(keys)
	for i, k := range keys {
		if !oks[i] || sats[i][0] != k*3 {
			t.Errorf("post-run LookupBatch key %d: ok=%v sat=%v", k, oks[i], sats[i])
		}
	}
	// The ledger's Ops counter is exact even under concurrency (the cost
	// attribution is approximate, the counts are not). Each goroutine
	// did perG inserts, perG single lookups, and perG-2 batches of 3.
	wantOps := int64(G * (perG + perG + (perG-2)*3))
	if got := d.Ops(); got != wantOps+int64(len(keys)) {
		t.Errorf("Ops = %d, want %d", got, wantOps+int64(len(keys)))
	}
}

// TestConcurrentLookupBatchEquivalence checks, for every BatchLookuper,
// that concurrent batched lookups agree with single lookups.
func TestConcurrentLookupBatchEquivalence(t *testing.T) {
	mk := func() []struct {
		name string
		d    interface {
			Dictionary
			LookupBatch([]Word) ([][]Word, []bool)
		}
	} {
		basic, err := NewBasic(BasicOptions{Options: Options{Capacity: 500, SatWords: 1, Universe: 1 << 21, Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		oneProbe, err := NewOneProbe(OneProbeOptions{Options: Options{Capacity: 500, SatWords: 1, Universe: 1 << 21, Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		dynamic, err := NewDynamic(Options{Capacity: 500, SatWords: 1, Universe: 1 << 21, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		dict, err := New(Options{Capacity: 100, SatWords: 1, Universe: 1 << 21, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		syncDict, err := New(Options{Capacity: 100, SatWords: 1, Universe: 1 << 21, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		// A HashTable has no batch path, so SyncDict answers its batches
		// with the per-key loop.
		hash, err := NewHashTable(Options{Capacity: 500, SatWords: 1, Universe: 1 << 21, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return []struct {
			name string
			d    interface {
				Dictionary
				LookupBatch([]Word) ([][]Word, []bool)
			}
		}{
			{"Basic", basic}, {"OneProbe", oneProbe}, {"Dynamic", dynamic}, {"Dict", dict},
			{"SyncDict", Synchronized(syncDict)}, {"SyncHashTable", Synchronized(hash)},
		}
	}
	for _, tc := range mk() {
		t.Run(tc.name, func(t *testing.T) {
			const n = 300
			for i := 0; i < n; i++ {
				k := Word(i*5 + 1)
				if err := tc.d.Insert(k, []Word{k + 100}); err != nil {
					t.Fatalf("insert %d: %v", k, err)
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					keys := make([]Word, 0, 64)
					for i := g; i < g+64; i++ {
						keys = append(keys, Word(i*5+1)) // mostly present
						keys = append(keys, Word(i*5+2)) // absent
					}
					sats, oks := tc.d.LookupBatch(keys)
					for i, k := range keys {
						wantOK := (k-1)%5 == 0 && k < n*5
						if oks[i] != wantOK {
							t.Errorf("key %d: batch ok=%v want %v", k, oks[i], wantOK)
							return
						}
						if wantOK && sats[i][0] != k+100 {
							t.Errorf("key %d: batch sat=%v", k, sats[i])
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// The public batch-lookup structures satisfy BatchLookuper.
var (
	_ BatchLookuper = (*Dict)(nil)
	_ BatchLookuper = (*Basic)(nil)
	_ BatchLookuper = (*Dynamic)(nil)
	_ BatchLookuper = (*OneProbe)(nil)
	_ BatchLookuper = (*SyncDict)(nil)
)
