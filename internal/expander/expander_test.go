package expander

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFamilyBasics(t *testing.T) {
	g := NewFamily(1<<20, 8, 128, 42)
	if g.LeftSize() != 1<<20 {
		t.Errorf("LeftSize = %d", g.LeftSize())
	}
	if g.Degree() != 8 {
		t.Errorf("Degree = %d", g.Degree())
	}
	if g.RightSize() != 8*128 {
		t.Errorf("RightSize = %d", g.RightSize())
	}
	if g.StripeSize() != 128 {
		t.Errorf("StripeSize = %d", g.StripeSize())
	}
}

func TestFamilyDeterministic(t *testing.T) {
	a := NewFamily(1<<30, 6, 64, 7)
	b := NewFamily(1<<30, 6, 64, 7)
	for x := uint64(0); x < 200; x++ {
		na := NeighborSet(a, x)
		nb := NeighborSet(b, x)
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("same seed, different neighbors for x=%d", x)
			}
		}
	}
}

func TestFamilySeedMatters(t *testing.T) {
	a := NewFamily(1<<30, 6, 1024, 1)
	b := NewFamily(1<<30, 6, 1024, 2)
	same := 0
	for x := uint64(0); x < 100; x++ {
		na, nb := NeighborSet(a, x), NeighborSet(b, x)
		for i := range na {
			if na[i] == nb[i] {
				same++
			}
		}
	}
	// 600 draws from stripes of size 1024: expect ~0.6 accidental matches.
	if same > 30 {
		t.Errorf("different seeds agree on %d/600 neighbors; family ignores seed?", same)
	}
}

func TestFamilyStripingContract(t *testing.T) {
	g := NewFamily(1<<40, 10, 333, 99)
	probe := make([]uint64, 500)
	rng := rand.New(rand.NewSource(5))
	for i := range probe {
		probe[i] = rng.Uint64() % g.LeftSize()
	}
	if ok, bad := CheckStriped(g, probe); !ok {
		t.Errorf("striping contract violated at x=%d", bad)
	}
}

func TestFamilyPanicsOnBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { NewFamily(0, 4, 16, 0) },
		func() { NewFamily(10, 0, 16, 0) },
		func() { NewFamily(10, 4, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad NewFamily params did not panic")
				}
			}()
			f()
		}()
	}
}

func TestUnstripedDistinctNeighbors(t *testing.T) {
	g := NewUnstriped(1<<20, 8, 64, 3)
	for x := uint64(0); x < 300; x++ {
		ns := NeighborSet(g, x)
		if len(ns) != 8 {
			t.Fatalf("x=%d has %d neighbors, want 8", x, len(ns))
		}
		seen := map[int]bool{}
		for _, y := range ns {
			if y < 0 || y >= 64 {
				t.Fatalf("x=%d neighbor %d out of range", x, y)
			}
			if seen[y] {
				t.Fatalf("x=%d has duplicate neighbor %d", x, y)
			}
			seen[y] = true
		}
	}
}

func TestUnstripedTinyRightSide(t *testing.T) {
	// v == d forces every vertex to be adjacent to the whole right side.
	g := NewUnstriped(100, 4, 4, 1)
	ns := NeighborSet(g, 17)
	seen := map[int]bool{}
	for _, y := range ns {
		seen[y] = true
	}
	if len(seen) != 4 {
		t.Errorf("v==d: got %d distinct neighbors, want 4", len(seen))
	}
}

func TestTableGraph(t *testing.T) {
	tab := &Table{V: 5, Adj: [][]int{{0, 1}, {1, 2}, {3, 4}}}
	if tab.LeftSize() != 3 || tab.Degree() != 2 || tab.RightSize() != 5 {
		t.Errorf("table dims wrong: u=%d d=%d v=%d", tab.LeftSize(), tab.Degree(), tab.RightSize())
	}
	ns := NeighborSet(tab, 2)
	if ns[0] != 3 || ns[1] != 4 {
		t.Errorf("Neighbors(2) = %v", ns)
	}
	empty := &Table{V: 1}
	if empty.Degree() != 0 {
		t.Errorf("empty table degree = %d", empty.Degree())
	}
}

func TestNeighborhoodSize(t *testing.T) {
	// Two vertices sharing one neighbor: |Γ| = 3.
	tab := &Table{V: 4, Adj: [][]int{{0, 1}, {1, 2}}}
	if got := NeighborhoodSize(tab, []uint64{0, 1}); got != 3 {
		t.Errorf("NeighborhoodSize = %d, want 3", got)
	}
}

func TestEpsilonOf(t *testing.T) {
	tab := &Table{V: 4, Adj: [][]int{{0, 1}, {1, 2}}}
	// d|S| = 4, Γ = 3 → ε = 1/4.
	if got := EpsilonOf(tab, []uint64{0, 1}); got != 0.25 {
		t.Errorf("EpsilonOf = %v, want 0.25", got)
	}
	if got := EpsilonOf(tab, nil); got != 0 {
		t.Errorf("EpsilonOf(empty) = %v, want 0", got)
	}
}

func TestUniqueNeighbors(t *testing.T) {
	// Vertex 0: {0,1}; vertex 1: {1,2}. Unique: 0 (owner 0), 2 (owner 1).
	tab := &Table{V: 4, Adj: [][]int{{0, 1}, {1, 2}}}
	phi := UniqueNeighbors(tab, []uint64{0, 1})
	if len(phi) != 2 {
		t.Fatalf("|Φ| = %d, want 2", len(phi))
	}
	if phi[0] != 0 || phi[2] != 1 {
		t.Errorf("Φ owners wrong: %v", phi)
	}
}

func TestUniqueNeighborStats(t *testing.T) {
	tab := &Table{V: 4, Adj: [][]int{{0, 1}, {1, 2}}}
	st := UniqueNeighborStats(tab, []uint64{0, 1}, 0.5)
	// threshold = ceil(0.5*2) = 1 unique neighbor; both qualify.
	if st.Phi != 2 || st.WellCovered != 2 {
		t.Errorf("stats = %+v, want Phi=2 WellCovered=2", st)
	}
	if st.PerVertex[0] != 1 || st.PerVertex[1] != 1 {
		t.Errorf("PerVertex = %v, want [1 1]", st.PerVertex)
	}
}

func TestLemma4OnFamily(t *testing.T) {
	// Lemma 4: |Φ(S)| ≥ (1−2ε)d|S|. Measure ε on the same set and check
	// the implication holds exactly (it is a theorem about any graph).
	g := NewFamily(1<<32, 8, 2048, 11)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 100, 500} {
		s := SampleSet(g.LeftSize(), n, rng)
		eps := EpsilonOf(g, s)
		st := UniqueNeighborStats(g, s, 1.0/3)
		bound := (1 - 2*eps) * float64(g.Degree()*n)
		if float64(st.Phi) < bound-1e-9 {
			t.Errorf("n=%d: Φ=%d below Lemma 4 bound %.2f (ε=%.4f)", n, st.Phi, bound, eps)
		}
	}
}

func TestLemma5OnFamily(t *testing.T) {
	// Lemma 5: |S′| ≥ (1 − 2ε/λ)|S|.
	g := NewFamily(1<<32, 12, 4096, 13)
	rng := rand.New(rand.NewSource(2))
	lambda := 1.0 / 3
	for _, n := range []int{50, 400} {
		s := SampleSet(g.LeftSize(), n, rng)
		eps := EpsilonOf(g, s)
		st := UniqueNeighborStats(g, s, lambda)
		bound := (1 - 2*eps/lambda) * float64(n)
		if float64(st.WellCovered) < bound-1e-9 {
			t.Errorf("n=%d: |S′|=%d below Lemma 5 bound %.2f (ε=%.4f)", n, st.WellCovered, bound, eps)
		}
	}
}

func TestVerifyExhaustiveTinyGraph(t *testing.T) {
	// Complete-ish bipartite graph on a tiny universe: perfect expansion
	// for singletons.
	g := NewFamily(8, 3, 16, 21)
	rep := VerifyExhaustive(g, 2)
	if rep.SetsChecked != 8+28 {
		t.Errorf("SetsChecked = %d, want 36", rep.SetsChecked)
	}
	if rep.WorstEpsilon < 0 || rep.WorstEpsilon > 1 {
		t.Errorf("WorstEpsilon = %v out of [0,1]", rep.WorstEpsilon)
	}
}

func TestVerifyExhaustivePanicsOnLargeUniverse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VerifyExhaustive on u=2^20 did not panic")
		}
	}()
	VerifyExhaustive(NewFamily(1<<20, 3, 16, 0), 2)
}

func TestEstimateExpansionFamilyIsGood(t *testing.T) {
	// The working regime of the dictionaries: d = 12, stripes sized so
	// that v ≈ 4nd. Sampled sets must expand well (ε comfortably < 1/6,
	// the Theorem 6 requirement region for ε = 1/12..1/6).
	g := NewFamily(1<<40, 12, 1<<12, 777)
	rep := EstimateExpansion(g, []int{16, 64, 256}, 30, 9)
	if rep.WorstEpsilon > 1.0/6 {
		t.Errorf("sampled worst ε = %.4f, want ≤ 1/6 in the working regime", rep.WorstEpsilon)
	}
	if rep.SetsChecked != 90 {
		t.Errorf("SetsChecked = %d, want 90", rep.SetsChecked)
	}
}

func TestCommonNeighbors(t *testing.T) {
	// Hand-built: x→{0,1,2}, y→{1,2,3} share {1,2}.
	tab := &Table{V: 4, Adj: [][]int{{0, 1, 2}, {1, 2, 3}}}
	if got := CommonNeighbors(tab, 0, 1); got != 2 {
		t.Errorf("CommonNeighbors = %d, want 2", got)
	}
	if got := CommonNeighbors(tab, 0, 0); got != 3 {
		t.Errorf("self common = %d, want 3", got)
	}
}

func TestMaxPairwiseCommonStaysBelowMajority(t *testing.T) {
	// The Theorem 6(b) soundness margin: in the dictionary's working
	// regime, sampled pairs share far fewer than d/2 neighbors.
	g := NewFamily(1<<40, 12, 6*4096, 99)
	max := MaxPairwiseCommon(g, 3000, 7)
	if max >= g.Degree()/2 {
		t.Errorf("max common neighbors = %d of d=%d; majority decoding unsafe", max, g.Degree())
	}
}

func TestSampleSetDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := SampleSet(1000, 100, rng)
	seen := map[uint64]bool{}
	for _, x := range s {
		if x >= 1000 {
			t.Fatalf("sample %d out of range", x)
		}
		if seen[x] {
			t.Fatalf("duplicate sample %d", x)
		}
		seen[x] = true
	}
}

func TestSampleSetPanicsWhenTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized sample did not panic")
		}
	}()
	SampleSet(5, 6, rand.New(rand.NewSource(0)))
}

// Property: Φ(S) owners are always members of S and every unique node is
// counted once per owner in PerVertex.
func TestPropertyPhiConsistency(t *testing.T) {
	g := NewFamily(1<<16, 6, 512, 5)
	f := func(raw []uint16) bool {
		seen := map[uint64]bool{}
		var s []uint64
		for _, r := range raw {
			x := uint64(r)
			if !seen[x] {
				seen[x] = true
				s = append(s, x)
			}
			if len(s) == 40 {
				break
			}
		}
		if len(s) == 0 {
			return true
		}
		st := UniqueNeighborStats(g, s, 0.5)
		sum := 0
		for _, c := range st.PerVertex {
			sum += c
		}
		return sum == st.Phi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: expansion never exceeds the trivial bounds
// 1 ≤ |Γ(S)| ≤ min(d|S|, v).
func TestPropertyGammaBounds(t *testing.T) {
	g := NewFamily(1<<16, 5, 64, 8)
	f := func(raw []uint16) bool {
		seen := map[uint64]bool{}
		var s []uint64
		for _, r := range raw {
			if !seen[uint64(r)] {
				seen[uint64(r)] = true
				s = append(s, uint64(r))
			}
		}
		if len(s) == 0 {
			return true
		}
		gamma := NeighborhoodSize(g, s)
		hi := g.Degree() * len(s)
		if v := g.RightSize(); hi > v {
			hi = v
		}
		return gamma >= 1 && gamma <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Unstriped.Neighbors re-maps multi-edges by linear probing; the ids and
// their order are part of every head-model dictionary's layout. The
// digests were recorded from the map-based implementation this scan
// replaced, over 1 000 keys for each of three seeds, with a right part
// small enough (v = 3d) that most keys need re-mapping.
func TestUnstripedNeighborsGolden(t *testing.T) {
	golden := map[uint64]uint64{1: 0x5fda21e5bf5ebdb7, 2: 0x4bca66fc4a069768, 3: 0x5b334bfc7fa91b4a}
	const d, v = 20, 60
	for seed, want := range golden {
		g := NewUnstriped(1<<40, d, v, seed)
		h := fnv.New64a()
		var buf [8]byte
		dst := []int{-1} // a non-empty dst: earlier entries are not x's neighbors
		for k := uint64(0); k < 1000; k++ {
			ns := g.Neighbors(k*0x9e3779b97f4a7c15>>24, dst)
			if len(ns) != 1+d || ns[0] != -1 {
				t.Fatalf("seed %d key %d: Neighbors returned %v", seed, k, ns)
			}
			for _, y := range ns[1:] {
				binary.LittleEndian.PutUint64(buf[:], uint64(y))
				h.Write(buf[:])
			}
		}
		if got := h.Sum64(); got != want {
			t.Errorf("seed %d: neighbor digest %#x, want %#x", seed, got, want)
		}
	}
}
