// Package loadbalance implements the deterministic load balancing scheme
// of Section 3 of the paper: d-choice balls-into-bins on a fixed
// unbalanced bipartite expander.
//
// There is an unknown set of n left vertices, each carrying k items; the
// set is revealed element by element and each item must be assigned
// on-line to one of the vertex's d neighboring buckets. The strategy is
// greedy: assign the k items one by one, each to a neighboring bucket
// that currently has the fewest items, breaking ties deterministically
// (lowest neighbor position). Multiple items of one vertex may share a
// bucket. Choose is that rule, written once: Balancer calls it on
// in-memory loads, and the dictionaries in internal/core call it on the
// loads of the buckets they read.
//
// Lemma 3 bounds the maximum load when the graph is a (d, ε, δ)-expander
// and d > k:
//
//	max load ≤ (1/(1−ε)) · ⌈kn/((1−δ)v)⌉ + log_{(1−ε)d/k} v.
//
// The same scheme with k = 1 and a random left-degree-2 graph is the
// classic two-choice process of Azar et al. [2] and Berenbrink et al.
// [3]; those baselines are obtained here by running the balancer over a
// seeded random graph of degree 2 (or 1), which is how experiment
// E2-lemma3 compares the deterministic scheme against them.
package loadbalance

import (
	"fmt"
	"math"
	"slices"

	"pdmdict/internal/expander"
)

// Choose is the greedy rule of Section 3 for one left vertex. loads[i]
// is the current load of the vertex's i-th neighbor. Choose makes k
// picks, each a least-loaded eligible position, bumps loads[i] at every
// pick of i, and appends the picks to dst. A position is eligible while
// its load is below capacity and, when distinct is set, while no earlier
// pick of this call took it. Ties go to the lowest position. ok is false
// when a pick finds no eligible position; dst then ends with the picks
// made so far.
func Choose(dst, loads []int, k, capacity int, distinct bool) (_ []int, ok bool) {
	base := len(dst)
	for j := 0; j < k; j++ {
		best := -1
		for i, l := range loads {
			if l >= capacity || (distinct && slices.Contains(dst[base:], i)) {
				continue
			}
			if best == -1 || l < loads[best] {
				best = i
			}
		}
		if best == -1 {
			return dst, false
		}
		loads[best]++
		dst = append(dst, best)
	}
	return dst, true
}

// Balancer runs the greedy d-choice scheme over a fixed graph, calling
// Choose on in-memory per-bucket loads with no capacity. It is the
// reference the experiments measure; the dictionaries in internal/core
// call Choose on disk-resident buckets.
type Balancer struct {
	g     expander.Graph
	k     int
	load  []int
	balls int
	buf   []int // the placed vertex's neighbors, sorted and distinct
	view  []int // their loads, by position
	picks []int // Place's result
}

// New returns a balancer placing k items per left vertex on graph g.
// It requires 1 ≤ k ≤ d (the scheme assigns each of the k items to one of
// the d neighbors; Lemma 3 needs d > k for a nontrivial bound, but k = d
// is still a valid process).
func New(g expander.Graph, k int) *Balancer {
	if k < 1 || k > g.Degree() {
		panic(fmt.Sprintf("loadbalance: k=%d outside [1, d=%d]", k, g.Degree()))
	}
	return &Balancer{g: g, k: k, load: make([]int, g.RightSize())}
}

// K returns the number of items placed per vertex.
func (b *Balancer) K() int { return b.k }

// Graph returns the underlying graph.
func (b *Balancer) Graph() expander.Graph { return b.g }

// Place assigns the k items of left vertex x and returns the chosen
// bucket indices (length k, possibly with repeats). The result is
// Place's own buffer, valid until the next Place. The choice is
// Choose's greedy rule over x's neighbors sorted by bucket index, with
// repeats dropped, so ties break to the lowest bucket index and the
// whole process is deterministic.
func (b *Balancer) Place(x uint64) []int {
	b.buf = b.g.Neighbors(x, b.buf[:0])
	slices.Sort(b.buf)
	b.buf = slices.Compact(b.buf)
	b.view = b.view[:0]
	for _, y := range b.buf {
		b.view = append(b.view, b.load[y])
	}
	b.picks, _ = Choose(b.picks[:0], b.view, b.k, math.MaxInt, false)
	for j, i := range b.picks {
		b.picks[j] = b.buf[i]
		b.load[b.buf[i]]++
	}
	b.balls++
	return b.picks
}

// PlaceAll places every vertex of s in order and returns the final
// maximum load.
func (b *Balancer) PlaceAll(s []uint64) int {
	for _, x := range s {
		b.Place(x)
	}
	return b.MaxLoad()
}

// Loads returns the current per-bucket loads. The slice is live; callers
// must not modify it.
func (b *Balancer) Loads() []int { return b.load }

// Placed returns how many left vertices have been placed so far.
func (b *Balancer) Placed() int { return b.balls }

// MaxLoad returns the current maximum bucket load.
func (b *Balancer) MaxLoad() int {
	m := 0
	for _, l := range b.load {
		if l > m {
			m = l
		}
	}
	return m
}

// AverageLoad returns kn/v, the average load after n placements.
func (b *Balancer) AverageLoad() float64 {
	return float64(b.k*b.balls) / float64(b.g.RightSize())
}

// Histogram returns counts[i] = number of buckets with load exactly i,
// up to and including the maximum load.
func (b *Balancer) Histogram() []int {
	h := make([]int, b.MaxLoad()+1)
	for _, l := range b.load {
		h[l]++
	}
	return h
}

// Lemma3Bound evaluates the max-load bound of Lemma 3 for n placed
// vertices on a (d, ε, δ)-expander with v buckets and k items per vertex:
//
//	(1/(1−ε)) · ⌈kn/((1−δ)v)⌉ + log_{(1−ε)d/k} v.
//
// It requires (1−ε)d > k (otherwise the geometric argument of the lemma
// collapses and the function returns +Inf).
func Lemma3Bound(n, v, d, k int, eps, delta float64) float64 {
	base := (1 - eps) * float64(d) / float64(k)
	if base <= 1 {
		return math.Inf(1)
	}
	mu := math.Ceil(float64(k*n) / ((1 - delta) * float64(v)))
	return mu/(1-eps) + math.Log(float64(v))/math.Log(base)
}

// BoundHolds reports whether the balancer's current maximum load respects
// Lemma3Bound for the given expansion parameters; it is the assertion
// experiment E2-lemma3 checks after every run.
func (b *Balancer) BoundHolds(eps, delta float64) bool {
	bound := Lemma3Bound(b.balls, b.g.RightSize(), b.g.Degree(), b.k, eps, delta)
	return float64(b.MaxLoad()) <= bound
}
