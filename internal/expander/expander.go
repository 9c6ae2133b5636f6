// Package expander provides the bipartite expander graphs that every
// dictionary in the paper is built on, together with machinery for
// verifying their expansion properties.
//
// A bipartite, left-d-regular graph G = (U, V, E) is a (d, ε, δ)-expander
// if any set S ⊆ U has at least min((1−ε)d|S|, (1−δ)|V|) neighbors
// (Definition 1), and an (N, ε)-expander if any set of at most N left
// vertices has at least (1−ε)d|S| neighbors (Definition 2).
//
// The paper assumes free access to optimal expanders with degree
// d = O(log u), whose existence is known probabilistically but for which
// no explicit construction exists. Following the paper's own Open
// Problems section ("It seems possible that practical and truly simple
// constructions could exist, e.g., a subset of d functions from some
// efficient family of hash functions"), this package realizes graphs as a
// family of d seeded mixing functions. The construction is deterministic
// given its seed, and — crucially — the expansion property is *verified*
// (exhaustively for small universes, by sampling for large ones) rather
// than assumed; see verify.go. Section 5's semi-explicit telescope
// construction lives in the sibling package internal/explicit.
package expander

import (
	"fmt"
	"slices"
)

// Graph is a bipartite left-d-regular graph. Left vertices are the keys
// of a universe [0, LeftSize); right vertices are indices in
// [0, RightSize).
type Graph interface {
	// LeftSize returns u, the size of the left part (the key universe).
	LeftSize() uint64
	// RightSize returns v, the size of the right part.
	RightSize() int
	// Degree returns d, the number of neighbors of every left vertex.
	Degree() int
	// Neighbors appends the d neighbors of x to dst and returns the
	// extended slice. Implementations must be deterministic and free of
	// I/O: the paper requires neighbor evaluation to use internal memory
	// only.
	Neighbors(x uint64, dst []int) []int
}

// Striped is a graph whose right part is partitioned into d stripes of
// equal size such that every left vertex has exactly one neighbor in each
// stripe. Striped graphs are what the parallel disk model needs: stripe i
// is stored on disk i, so the d blocks holding Γ(x) can be fetched in a
// single parallel I/O.
type Striped interface {
	Graph
	// StripeSize returns RightSize() / Degree().
	StripeSize() int
	// StripeNeighbor returns the index within stripe i (in
	// [0, StripeSize)) of x's unique neighbor in that stripe. The global
	// right-vertex index is i*StripeSize() + StripeNeighbor(x, i).
	StripeNeighbor(x uint64, i int) int
}

// mix64 is the SplitMix64 finalizer: a fast, high-quality 64-bit mixing
// permutation. It is the entire "hash family" behind Family.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Family is a striped, left-d-regular bipartite graph realized by d
// seeded mixing functions: the neighbor of x in stripe i is
// mix(seed, i, x) mod stripeSize. It is the deterministic stand-in for
// the optimal expanders the paper assumes (see the package comment).
type Family struct {
	u          uint64
	d          int
	stripeSize int
	seed       uint64
}

// NewFamily returns a striped graph with left part [0, u), degree d, and
// right part of size d*stripeSize (one stripe per disk). The same
// (u, d, stripeSize, seed) always yields the same graph.
func NewFamily(u uint64, d, stripeSize int, seed uint64) *Family {
	if u == 0 {
		panic("expander: empty universe")
	}
	if d <= 0 || stripeSize <= 0 {
		panic(fmt.Sprintf("expander: invalid degree %d or stripe size %d", d, stripeSize))
	}
	return &Family{u: u, d: d, stripeSize: stripeSize, seed: seed}
}

// LeftSize returns the universe size u.
func (f *Family) LeftSize() uint64 { return f.u }

// RightSize returns v = d * stripeSize.
func (f *Family) RightSize() int { return f.d * f.stripeSize }

// Degree returns the left degree d.
func (f *Family) Degree() int { return f.d }

// StripeSize returns the number of right vertices per stripe.
func (f *Family) StripeSize() int { return f.stripeSize }

// StripeNeighbor returns x's neighbor within stripe i.
func (f *Family) StripeNeighbor(x uint64, i int) int {
	h := mix64(f.seed ^ mix64(uint64(i)+1) ^ mix64(x))
	return int(h % uint64(f.stripeSize))
}

// Neighbors appends the d global neighbor indices of x to dst.
func (f *Family) Neighbors(x uint64, dst []int) []int {
	for i := 0; i < f.d; i++ {
		dst = append(dst, i*f.stripeSize+f.StripeNeighbor(x, i))
	}
	return dst
}

// NeighborSet returns the neighbors of x as a fresh slice. It is a
// convenience wrapper over Neighbors.
func NeighborSet(g Graph, x uint64) []int {
	return g.Neighbors(x, make([]int, 0, g.Degree()))
}

// Unstriped is a plain (non-striped) left-d-regular graph over a single
// unpartitioned right part, realized by the same seeded mixing family.
// Duplicate draws are re-mapped deterministically by linear probing so
// that every left vertex has d distinct neighbors, mirroring the paper's
// "appropriate re-mapping of possible multi-edges" (Lemma 10). It is used
// by the striping ablation (DESIGN.md A1): Section 5 notes explicit
// constructions are not striped and must either run in the disk-head
// model or be striped trivially at a factor-d space cost.
type Unstriped struct {
	u    uint64
	d    int
	v    int
	seed uint64
}

// NewUnstriped returns an unstriped graph with right part of size v.
// It requires v >= d so that d distinct neighbors exist.
func NewUnstriped(u uint64, d, v int, seed uint64) *Unstriped {
	if d <= 0 || v < d {
		panic(fmt.Sprintf("expander: need v >= d > 0, got d=%d v=%d", d, v))
	}
	return &Unstriped{u: u, d: d, v: v, seed: seed}
}

// LeftSize returns the universe size u.
func (g *Unstriped) LeftSize() uint64 { return g.u }

// RightSize returns v.
func (g *Unstriped) RightSize() int { return g.v }

// Degree returns the left degree d.
func (g *Unstriped) Degree() int { return g.d }

// Neighbors appends the d distinct neighbors of x to dst.
func (g *Unstriped) Neighbors(x uint64, dst []int) []int {
	base := len(dst)
	for i := 0; len(dst)-base < g.d; i++ {
		h := int(mix64(g.seed^mix64(uint64(i)+1)^mix64(x)) % uint64(g.v))
		// Deterministic re-map of multi-edges: a scan over the at most d
		// ids drawn so far, which at these sizes beats a set and allocates
		// nothing.
		for slices.Contains(dst[base:], h) {
			h = (h + 1) % g.v
		}
		dst = append(dst, h)
	}
	return dst
}

// Table is a graph backed by an explicit adjacency table. It is the
// representation produced by probabilistic search in internal/explicit
// (Theorem 9's "found probabilistically" option) and is also handy in
// tests for hand-built graphs.
type Table struct {
	V   int
	Adj [][]int // Adj[x] lists the d neighbors of left vertex x
}

// LeftSize returns the number of rows of the table.
func (t *Table) LeftSize() uint64 { return uint64(len(t.Adj)) }

// RightSize returns v.
func (t *Table) RightSize() int { return t.V }

// Degree returns the common length of the adjacency rows.
func (t *Table) Degree() int {
	if len(t.Adj) == 0 {
		return 0
	}
	return len(t.Adj[0])
}

// Neighbors appends the stored neighbors of x to dst.
func (t *Table) Neighbors(x uint64, dst []int) []int {
	return append(dst, t.Adj[x]...)
}
