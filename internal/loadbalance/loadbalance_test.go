package loadbalance

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pdmdict/internal/expander"
)

func TestPlaceGreedyRule(t *testing.T) {
	// Hand-built graph: vertex 0 → {0,1}, vertex 1 → {1,2}, vertex 2 → {0,2}.
	g := &expander.Table{V: 3, Adj: [][]int{{0, 1}, {1, 2}, {0, 2}}}
	b := New(g, 1)
	if got := b.Place(0); got[0] != 0 { // tie 0/1 breaks low
		t.Errorf("Place(0) = %v, want bucket 0", got)
	}
	if got := b.Place(1); got[0] != 1 { // loads: 0→1, 1→0, 2→0; min of {1,2} is 1? both 0, tie breaks low → 1
		t.Errorf("Place(1) = %v, want bucket 1", got)
	}
	if got := b.Place(2); got[0] != 2 { // loads now 1,1,0; min of {0,2} is 2
		t.Errorf("Place(2) = %v, want bucket 2", got)
	}
	if b.MaxLoad() != 1 {
		t.Errorf("MaxLoad = %d, want 1", b.MaxLoad())
	}
}

func TestPlaceKItems(t *testing.T) {
	g := &expander.Table{V: 4, Adj: [][]int{{0, 1, 2, 3}}}
	b := New(g, 3)
	got := b.Place(0)
	// Greedy with all-zero loads: items spread 0, 1, 2.
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("choice %d = %d, want %d", i, got[i], want[i])
		}
	}
	if b.MaxLoad() != 1 {
		t.Errorf("MaxLoad = %d, want 1 (items spread)", b.MaxLoad())
	}
}

func TestChooseRule(t *testing.T) {
	for _, tc := range []struct {
		name     string
		loads    []int
		k, cap   int
		distinct bool
		want     []int
		ok       bool
	}{
		{"ties go to the lowest position", []int{1, 0, 0, 1}, 1, 9, false, []int{1}, true},
		{"repeats allowed", []int{0, 3, 3}, 3, 9, false, []int{0, 0, 0}, true},
		{"distinct positions", []int{0, 3, 3}, 3, 9, true, []int{0, 1, 2}, true},
		{"full buckets are skipped", []int{2, 0, 1}, 3, 2, false, []int{1, 1, 2}, true},
		{"no eligible position left", []int{1, 2, 0}, 4, 2, false, []int{2, 0, 2}, false},
		{"distinct runs out", []int{0, 9}, 3, 10, true, []int{0, 1}, false},
	} {
		loads := slices.Clone(tc.loads)
		got, ok := Choose([]int{-1}, loads, tc.k, tc.cap, tc.distinct)
		if want := append([]int{-1}, tc.want...); ok != tc.ok || !slices.Equal(got, want) {
			t.Errorf("%s: Choose = %v, %v; want %v, %v", tc.name, got, ok, want, tc.ok)
		}
		for _, i := range tc.want {
			loads[i]--
		}
		if !slices.Equal(loads, tc.loads) {
			t.Errorf("%s: loads after the picks are undone = %v, want %v", tc.name, loads, tc.loads)
		}
	}
}

// The placement rule runs once per inserted key, so neither it nor a
// warm Balancer allocates.
func TestPlacementAllocatesNothing(t *testing.T) {
	loads := make([]int, 16)
	dst := make([]int, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		dst, _ = Choose(dst[:0], loads, 8, math.MaxInt, true)
	}); n != 0 {
		t.Errorf("Choose: %v allocs/op, want 0", n)
	}
	b := New(expander.NewFamily(1<<30, 16, 64, 1), 8)
	b.Place(0)
	x := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		x++
		b.Place(x)
	}); n != 0 {
		t.Errorf("warm Balancer.Place: %v allocs/op, want 0", n)
	}
}

func TestKEqualDegreeAllowed(t *testing.T) {
	g := &expander.Table{V: 2, Adj: [][]int{{0, 1}}}
	b := New(g, 2)
	b.Place(0)
	if b.MaxLoad() != 1 {
		t.Errorf("k=d: MaxLoad = %d, want 1", b.MaxLoad())
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	g := &expander.Table{V: 2, Adj: [][]int{{0, 1}}}
	for _, k := range []int{0, 3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d did not panic", k)
				}
			}()
			New(g, k)
		}()
	}
}

func TestCountersAndHistogram(t *testing.T) {
	g := expander.NewFamily(1<<20, 4, 8, 1)
	b := New(g, 2)
	s := expander.SampleSet(g.LeftSize(), 16, rand.New(rand.NewSource(1)))
	b.PlaceAll(s)
	if b.Placed() != 16 {
		t.Errorf("Placed = %d, want 16", b.Placed())
	}
	if got, want := b.AverageLoad(), float64(2*16)/32; got != want {
		t.Errorf("AverageLoad = %v, want %v", got, want)
	}
	h := b.Histogram()
	total, items := 0, 0
	for l, c := range h {
		total += c
		items += l * c
	}
	if total != g.RightSize() {
		t.Errorf("histogram covers %d buckets, want %d", total, g.RightSize())
	}
	if items != 32 {
		t.Errorf("histogram counts %d items, want 32", items)
	}
}

func TestDeterministicReplay(t *testing.T) {
	g := expander.NewFamily(1<<30, 8, 256, 42)
	s := expander.SampleSet(g.LeftSize(), 500, rand.New(rand.NewSource(7)))
	b1, b2 := New(g, 1), New(g, 1)
	for _, x := range s {
		c1, c2 := b1.Place(x), b2.Place(x)
		if c1[0] != c2[0] {
			t.Fatalf("non-deterministic placement for x=%d", x)
		}
	}
}

func TestLemma3BoundValues(t *testing.T) {
	// (1-ε)d/k ≤ 1 ⇒ +Inf.
	if got := Lemma3Bound(100, 100, 2, 2, 0.1, 0.1); !math.IsInf(got, 1) {
		t.Errorf("degenerate bound = %v, want +Inf", got)
	}
	// Sanity: bound is at least the average load.
	n, v, d, k := 10000, 1000, 16, 1
	bound := Lemma3Bound(n, v, d, k, 0.25, 0.5)
	if bound < float64(k*n)/float64(v) {
		t.Errorf("bound %v below average load", bound)
	}
	// Bound grows with n.
	if Lemma3Bound(2*n, v, d, k, 0.25, 0.5) <= bound {
		t.Error("bound not monotone in n")
	}
}

func TestMaxLoadNearAverageOnExpanderFamily(t *testing.T) {
	// The heart of Lemma 3: on a good graph the max load is the average
	// plus a logarithmic additive term — far below the naive n.
	g := expander.NewFamily(1<<40, 16, 1024, 3)
	v := g.RightSize()
	n := 8 * v // heavily loaded case: average load 8 with k=1
	s := expander.SampleSet(g.LeftSize(), n, rand.New(rand.NewSource(2)))
	b := New(g, 1)
	max := b.PlaceAll(s)
	avg := b.AverageLoad()
	if float64(max) > avg+math.Log2(float64(v)) {
		t.Errorf("max load %d exceeds average %.1f + log2(v)=%.1f", max, avg, math.Log2(float64(v)))
	}
	if !b.BoundHolds(0.25, 0.5) {
		t.Errorf("Lemma 3 bound violated: max=%d bound=%.1f", max,
			Lemma3Bound(n, v, 16, 1, 0.25, 0.5))
	}
}

func TestGreedyBeatsSingleChoice(t *testing.T) {
	// d-choice greedy must have max load well below the degree-1
	// (single-choice) process on the same workload.
	u := uint64(1 << 40)
	v := 2048
	n := 4 * v
	s := expander.SampleSet(u, n, rand.New(rand.NewSource(4)))

	multi := New(expander.NewFamily(u, 8, v/8, 5), 1)
	single := New(expander.NewUnstriped(u, 1, v, 5), 1)
	maxMulti := multi.PlaceAll(s)
	maxSingle := single.PlaceAll(s)
	if maxMulti >= maxSingle {
		t.Errorf("greedy d-choice max %d not below single-choice max %d", maxMulti, maxSingle)
	}
}

// Property: total load always equals k times the number of placements,
// and every item lands on a neighbor of its vertex.
func TestPropertyLoadConservationAndLocality(t *testing.T) {
	g := expander.NewFamily(1<<16, 5, 32, 9)
	f := func(raw []uint16, kRaw uint8) bool {
		k := int(kRaw)%g.Degree() + 1
		b := New(g, k)
		for _, r := range raw {
			x := uint64(r)
			choices := b.Place(x)
			ns := expander.NeighborSet(g, x)
			ok := func(c int) bool {
				for _, y := range ns {
					if y == c {
						return true
					}
				}
				return false
			}
			for _, c := range choices {
				if !ok(c) {
					return false
				}
			}
		}
		total := 0
		for _, l := range b.Loads() {
			total += l
		}
		return total == k*len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
