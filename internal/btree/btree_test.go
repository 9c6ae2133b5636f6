package btree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pdmdict/internal/cache"
	"pdmdict/internal/pdm"
)

func newTree(t *testing.T, d, b int, cfg Config) (*Tree, *pdm.Machine) {
	t.Helper()
	m := pdm.NewMachine(pdm.Config{D: d, B: b})
	tr, err := New(m, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr, m
}

func TestEmptyTree(t *testing.T) {
	tr, _ := newTree(t, 4, 16, Config{SatWords: 1})
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("empty tree: Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Lookup(5); ok {
		t.Error("empty tree contains 5")
	}
	if tr.Delete(5) {
		t.Error("empty tree deleted 5")
	}
}

func TestInsertLookupDelete(t *testing.T) {
	tr, _ := newTree(t, 4, 16, Config{SatWords: 2})
	if err := tr.Insert(10, []pdm.Word{100, 101}); err != nil {
		t.Fatal(err)
	}
	sat, ok := tr.Lookup(10)
	if !ok || sat[0] != 100 || sat[1] != 101 {
		t.Fatalf("Lookup = %v %v", sat, ok)
	}
	if err := tr.Insert(10, []pdm.Word{200, 201}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d after update", tr.Len())
	}
	if sat, _ := tr.Lookup(10); sat[0] != 200 {
		t.Error("update did not stick")
	}
	if !tr.Delete(10) || tr.Delete(10) || tr.Contains(10) {
		t.Error("delete sequence wrong")
	}
}

func TestManyKeysSortedAndRandom(t *testing.T) {
	for name, gen := range map[string]func(i int) pdm.Word{
		"ascending":  func(i int) pdm.Word { return pdm.Word(i) },
		"descending": func(i int) pdm.Word { return pdm.Word(5000 - i) },
		"pseudo":     func(i int) pdm.Word { return pdm.Word((i*2654435761 + 7) % (1 << 30)) },
	} {
		tr, _ := newTree(t, 4, 32, Config{SatWords: 1})
		n := 3000
		for i := 0; i < n; i++ {
			if err := tr.Insert(gen(i), []pdm.Word{pdm.Word(i)}); err != nil {
				t.Fatalf("%s: insert %d: %v", name, i, err)
			}
		}
		if tr.Len() != n {
			t.Fatalf("%s: Len = %d, want %d", name, tr.Len(), n)
		}
		for i := 0; i < n; i++ {
			sat, ok := tr.Lookup(gen(i))
			if !ok || sat[0] != pdm.Word(i) {
				t.Fatalf("%s: key %d lost or wrong", name, i)
			}
		}
	}
}

func TestHeightIsLogarithmic(t *testing.T) {
	tr, _ := newTree(t, 4, 32, Config{SatWords: 0})
	n := 10000
	for i := 0; i < n; i++ {
		tr.Insert(pdm.Word(i*7+1), nil)
	}
	// Fanout ≈ 15: height should be ~log_8(10000) + 1 ≈ 6, certainly < 10.
	if tr.Height() > 10 {
		t.Errorf("height = %d for n=%d, fanout=%d", tr.Height(), n, tr.Fanout())
	}
}

func TestLookupCostEqualsHeight(t *testing.T) {
	tr, m := newTree(t, 4, 32, Config{SatWords: 1})
	for i := 0; i < 5000; i++ {
		tr.Insert(pdm.Word(i*13+1), []pdm.Word{1})
	}
	h := int64(tr.Height())
	for i := 0; i < 50; i++ {
		before := m.Stats()
		tr.Lookup(pdm.Word(i*13 + 1))
		if d := m.Stats().Sub(before).ParallelIOs; d != h {
			t.Fatalf("lookup = %d I/Os, want height %d", d, h)
		}
	}
}

func TestStripedNodesReduceHeight(t *testing.T) {
	n := 20000
	plain, _ := newTree(t, 8, 16, Config{SatWords: 0})
	striped, _ := newTree(t, 8, 16, Config{SatWords: 0, Striped: true})
	for i := 0; i < n; i++ {
		k := pdm.Word(i*31 + 3)
		plain.Insert(k, nil)
		striped.Insert(k, nil)
	}
	if striped.Height() >= plain.Height() {
		t.Errorf("striped height %d not below plain height %d (fanouts %d vs %d)",
			striped.Height(), plain.Height(), striped.Fanout(), plain.Fanout())
	}
	// Striped height ≈ log_{BD}(n): sanity-check the Θ(log_BD n) claim.
	bd := float64(8 * 16)
	want := math.Log(float64(n))/math.Log(bd/2) + 2
	if float64(striped.Height()) > want {
		t.Errorf("striped height %d above log_BD bound %.1f", striped.Height(), want)
	}
	for i := 0; i < n; i += 97 {
		if !striped.Contains(pdm.Word(i*31 + 3)) {
			t.Fatalf("striped tree lost key %d", i)
		}
	}
}

func TestConfigErrors(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 2, B: 4})
	if _, err := New(m, Config{SatWords: -1}); err == nil {
		t.Error("negative SatWords accepted")
	}
	if _, err := New(m, Config{SatWords: 10}); err == nil {
		t.Error("record larger than node accepted")
	}
}

// Property: the tree agrees with a map oracle under mixed workloads.
func TestPropertyTreeMatchesMap(t *testing.T) {
	f := func(ops []uint16, striped bool) bool {
		m := pdm.NewMachine(pdm.Config{D: 2, B: 16})
		tr, err := New(m, Config{SatWords: 1, Striped: striped})
		if err != nil {
			return false
		}
		oracle := map[pdm.Word]pdm.Word{}
		for _, op := range ops {
			k := pdm.Word(op % 199)
			switch op % 3 {
			case 0:
				v := pdm.Word(op)
				if tr.Insert(k, []pdm.Word{v}) == nil {
					oracle[k] = v
				}
			case 1:
				_, okOracle := oracle[k]
				if tr.Delete(k) != okOracle {
					return false
				}
				delete(oracle, k)
			case 2:
				sat, ok := tr.Lookup(k)
				v, okOracle := oracle[k]
				if ok != okOracle || (ok && sat[0] != v) {
					return false
				}
			}
		}
		return tr.Len() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: after inserting any set of distinct keys, an in-order check
// via lookups succeeds for every key and fails for keys not inserted.
func TestPropertyMembershipExact(t *testing.T) {
	f := func(raw []uint16) bool {
		m := pdm.NewMachine(pdm.Config{D: 2, B: 16})
		tr, err := New(m, Config{SatWords: 0})
		if err != nil {
			return false
		}
		in := map[pdm.Word]bool{}
		for _, r := range raw {
			k := pdm.Word(r)
			tr.Insert(k, nil)
			in[k] = true
		}
		for x := pdm.Word(0); x < 400; x++ {
			if tr.Contains(x) != in[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRangeScan(t *testing.T) {
	tr, m := newTree(t, 4, 16, Config{SatWords: 1})
	for i := 0; i < 1000; i++ {
		k := pdm.Word(i * 2) // even keys 0..1998
		if err := tr.Insert(k, []pdm.Word{k * 10}); err != nil {
			t.Fatal(err)
		}
	}
	var got []pdm.Word
	before := m.Stats().ParallelIOs
	tr.Range(100, 139, func(k pdm.Word, sat []pdm.Word) bool {
		if sat[0] != k*10 {
			t.Fatalf("satellite of %d = %d", k, sat[0])
		}
		got = append(got, k)
		return true
	})
	rangeIOs := m.Stats().ParallelIOs - before
	want := []pdm.Word{100, 102, 104, 106, 108, 110, 112, 114, 116, 118,
		120, 122, 124, 126, 128, 130, 132, 134, 136, 138}
	if len(got) != len(want) {
		t.Fatalf("got %d keys: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d = %d, want %d", i, got[i], want[i])
		}
	}
	// A 20-key range touches only a handful of nodes, not the whole tree.
	if rangeIOs > int64(tr.Height()+8) {
		t.Errorf("range scan cost %d I/Os for height %d", rangeIOs, tr.Height())
	}
	// Early stop.
	count := 0
	tr.Range(0, 1<<40, func(pdm.Word, []pdm.Word) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop after %d keys, want 5", count)
	}
	// Empty and inverted ranges.
	tr.Range(1, 1, func(pdm.Word, []pdm.Word) bool { t.Error("odd key matched"); return true })
	tr.Range(10, 5, func(pdm.Word, []pdm.Word) bool { t.Error("inverted range matched"); return true })
}

func TestRangeFullScanOrdered(t *testing.T) {
	tr, _ := newTree(t, 2, 16, Config{SatWords: 0})
	rng := rand.New(rand.NewSource(7))
	in := map[pdm.Word]bool{}
	for i := 0; i < 2000; i++ {
		k := pdm.Word(rng.Intn(10000))
		tr.Insert(k, nil)
		in[k] = true
	}
	var prev pdm.Word
	first := true
	seen := 0
	tr.Range(0, 1<<40, func(k pdm.Word, _ []pdm.Word) bool {
		if !first && k <= prev {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		if !in[k] {
			t.Fatalf("phantom key %d", k)
		}
		first = false
		prev = k
		seen++
		return true
	})
	if seen != len(in) {
		t.Errorf("range saw %d keys, want %d", seen, len(in))
	}
}

func TestRandomChurn(t *testing.T) {
	tr, _ := newTree(t, 4, 32, Config{SatWords: 1})
	rng := rand.New(rand.NewSource(1))
	oracle := map[pdm.Word]pdm.Word{}
	for i := 0; i < 20000; i++ {
		k := pdm.Word(rng.Intn(2000))
		if rng.Intn(3) == 0 {
			delete(oracle, k)
			tr.Delete(k)
		} else {
			v := pdm.Word(i)
			oracle[k] = v
			if err := tr.Insert(k, []pdm.Word{v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", tr.Len(), len(oracle))
	}
	for k, v := range oracle {
		sat, ok := tr.Lookup(k)
		if !ok || sat[0] != v {
			t.Fatalf("key %d = %v %v, want %d", k, sat, ok, v)
		}
	}
}

// New finds a storage's span opener by a run-time type assertion, so a
// change to pdm's span API that *pdm.Machine or *cache.Cache no longer
// matches would leave every tree batch untagged without failing a
// build. These assertions make it fail one.
var (
	_ spanner = (*pdm.Machine)(nil)
	_ spanner = (*cache.Cache)(nil)
)

// tagCounter counts a machine's batches by span path.
type tagCounter map[string]int

func (c tagCounter) Event(e pdm.Event) {
	if !e.Kind.IsSpan() && !e.Kind.IsAnnotation() {
		c[e.Tag]++
	}
}

func TestHookedTreeTagsItsBatches(t *testing.T) {
	tr, m := newTree(t, 4, 16, Config{SatWords: 1})
	tags := tagCounter{}
	m.SetHook(tags)
	for k := pdm.Word(1); k <= 200; k++ {
		if err := tr.Insert(k, []pdm.Word{k}); err != nil {
			t.Fatal(err)
		}
	}
	for k := pdm.Word(1); k <= 200; k++ {
		if _, ok := tr.Lookup(k); !ok {
			t.Fatalf("key %d not found", k)
		}
	}
	if tags["insert"] == 0 || tags["lookup"] == 0 || tags[""] != 0 {
		t.Errorf("hooked tree's batches by tag: %v, want insert and lookup and nothing untagged", tags)
	}
}
