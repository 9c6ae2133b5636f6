// Package btree implements the B-tree baseline of the paper's Section
// 1.2 in the parallel disk model: the associative structure file systems
// actually use, against which the dictionaries' 1-I/O lookups are
// motivated ("in most settings it takes 3 disk accesses before the
// contents of the block is available").
//
// Two node geometries are provided. Plain nodes occupy one block each
// (fanout Θ(B), nodes spread round-robin over the disks), so a lookup
// costs height ≈ log_B n parallel I/Os. Striped nodes occupy one
// logical stripe each (fanout Θ(B·D)), the standard way to exploit D
// disks by striping; the query cost Θ(log_BD n) shows the point the
// paper makes in Section 1 — no asymptotic speedup over one disk unless
// D is enormous.
package btree

import (
	"fmt"

	"pdmdict/internal/pdm"
)

// Config parameterizes a tree.
type Config struct {
	// SatWords is the satellite size per key, in words.
	SatWords int
	// Striped selects stripe-sized nodes (fanout Θ(B·D)) instead of
	// block-sized nodes (fanout Θ(B)).
	Striped bool
}

// Storage is the device surface the tree runs on: a *pdm.Machine
// directly, or a cache.Cache in front of one (the Section 1.2
// "negligible due to caching" configuration).
type Storage interface {
	ReadBlock(a pdm.Addr) []pdm.Word
	WriteBlock(a pdm.Addr, data []pdm.Word)
	ReadStripe(stripe int) []pdm.Word
	WriteStripe(stripe int, data []pdm.Word)
	D() int
	B() int
}

// spanner is implemented by storages that can tag batches with span
// labels (pdm.Machine, and cache.Cache delegating to its machine).
type spanner interface {
	Span(tag pdm.Tag) pdm.SpanEnd
}

// noSpan is the span opener of a storage that tags nothing: the zero
// SpanEnd closes nothing.
func noSpan(pdm.Tag) pdm.SpanEnd { return pdm.SpanEnd{} }

// Tree is a B-tree over (key, satellite) records.
type Tree struct {
	m    Storage
	span func(pdm.Tag) pdm.SpanEnd
	cfg  Config

	nodeWords int
	maxLeaf   int // max records in a leaf
	maxInt    int // max keys in an internal node

	root   int
	nNodes int
	height int
	n      int
}

// Node layout:
//
//	word0: 1 = leaf, 0 = internal
//	word1: count
//	leaf:     count records of (key, SatWords) words
//	internal: count keys, then count+1 child node ids
const (
	nodeLeaf     = 1
	nodeInternal = 0
)

// New creates an empty tree on the given storage.
func New(m Storage, cfg Config) (*Tree, error) {
	if cfg.SatWords < 0 {
		return nil, fmt.Errorf("btree: negative SatWords")
	}
	nw := m.B()
	if cfg.Striped {
		nw = m.B() * m.D()
	}
	t := &Tree{
		m:         m,
		span:      noSpan,
		cfg:       cfg,
		nodeWords: nw,
		maxLeaf:   (nw - 2) / (1 + cfg.SatWords),
		maxInt:    (nw - 3) / 2,
	}
	if s, ok := m.(spanner); ok {
		t.span = s.Span
	}
	if t.maxLeaf < 2 || t.maxInt < 2 {
		return nil, fmt.Errorf("btree: node of %d words too small for fanout 2", nw)
	}
	t.root = t.alloc()
	leaf := make([]pdm.Word, t.nodeWords)
	leaf[0] = nodeLeaf
	t.writeNode(t.root, leaf)
	t.height = 1
	return t, nil
}

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.n }

// Height returns the number of nodes on a root-to-leaf path — the
// lookup cost in parallel I/Os.
func (t *Tree) Height() int { return t.height }

// Fanout returns the maximum internal fanout.
func (t *Tree) Fanout() int { return t.maxInt + 1 }

func (t *Tree) alloc() int {
	id := t.nNodes
	t.nNodes++
	return id
}

// readNode costs one parallel I/O in both geometries.
func (t *Tree) readNode(id int) []pdm.Word {
	if t.cfg.Striped {
		return t.m.ReadStripe(id)
	}
	return t.m.ReadBlock(pdm.Addr{Disk: id % t.m.D(), Block: id / t.m.D()})
}

func (t *Tree) writeNode(id int, data []pdm.Word) {
	if t.cfg.Striped {
		t.m.WriteStripe(id, data)
		return
	}
	t.m.WriteBlock(pdm.Addr{Disk: id % t.m.D(), Block: id / t.m.D()}, data)
}

// Leaf record access.
func (t *Tree) leafRec(node []pdm.Word, i int) []pdm.Word {
	off := 2 + i*(1+t.cfg.SatWords)
	return node[off : off+1+t.cfg.SatWords]
}

// Internal node access.
func intKey(node []pdm.Word, i int) pdm.Word { return node[2+i] }
func (t *Tree) intChild(node []pdm.Word, i int) int {
	count := int(node[1])
	return int(node[2+count+i])
}

// Lookup returns a copy of key's satellite and whether it is present.
// Cost: Height() parallel I/Os.
func (t *Tree) Lookup(key pdm.Word) ([]pdm.Word, bool) {
	defer t.span(pdm.TagLookup).End()
	node := t.readNode(t.root)
	for node[0] == nodeInternal {
		count := int(node[1])
		i := 0
		for i < count && key >= intKey(node, i) {
			i++
		}
		node = t.readNode(t.intChild(node, i))
	}
	count := int(node[1])
	for i := 0; i < count; i++ {
		rec := t.leafRec(node, i)
		if rec[0] == key {
			out := make([]pdm.Word, t.cfg.SatWords)
			copy(out, rec[1:])
			return out, true
		}
	}
	return nil, false
}

// Contains reports presence at Lookup cost.
func (t *Tree) Contains(key pdm.Word) bool {
	_, ok := t.Lookup(key)
	return ok
}

// Insert stores (key, sat), replacing any existing satellite. Splits are
// performed preemptively on the way down, so the pass is single-descent.
func (t *Tree) Insert(key pdm.Word, sat []pdm.Word) error {
	if len(sat) != t.cfg.SatWords {
		return fmt.Errorf("btree: satellite of %d words, config says %d", len(sat), t.cfg.SatWords)
	}
	defer t.span(pdm.TagInsert).End()
	rootNode := t.readNode(t.root)
	if t.isFull(rootNode) {
		// Grow: new root above the split halves.
		left := t.root
		mid, right := t.split(left, rootNode)
		newRoot := t.alloc()
		nr := make([]pdm.Word, t.nodeWords)
		nr[0] = nodeInternal
		nr[1] = 1
		nr[2] = mid
		nr[3] = pdm.Word(left)
		nr[4] = pdm.Word(right)
		t.writeNode(newRoot, nr)
		t.root = newRoot
		t.height++
		rootNode = nr
	}
	t.insertNonFull(t.root, rootNode, key, sat)
	return nil
}

func (t *Tree) isFull(node []pdm.Word) bool {
	count := int(node[1])
	if node[0] == nodeLeaf {
		return count >= t.maxLeaf
	}
	return count >= t.maxInt
}

// split divides a full node into two, returning the separator key and
// the new right sibling's id. The left half is written back under the
// original id; keys ≥ separator go right.
func (t *Tree) split(id int, node []pdm.Word) (pdm.Word, int) {
	rightID := t.alloc()
	right := make([]pdm.Word, t.nodeWords)
	count := int(node[1])
	var sep pdm.Word
	if node[0] == nodeLeaf {
		half := count / 2
		sep = t.leafRec(node, half)[0]
		right[0] = nodeLeaf
		right[1] = pdm.Word(count - half)
		for i := half; i < count; i++ {
			copy(t.leafRec(right, i-half), t.leafRec(node, i))
		}
		node[1] = pdm.Word(half)
		t.clearLeafTail(node, half, count)
	} else {
		half := count / 2
		sep = intKey(node, half)
		rCount := count - half - 1
		right[0] = nodeInternal
		right[1] = pdm.Word(rCount)
		for i := 0; i < rCount; i++ {
			right[2+i] = intKey(node, half+1+i)
		}
		for i := 0; i <= rCount; i++ {
			right[2+rCount+i] = node[2+count+half+1+i]
		}
		// Compact the left half: children move up next to the keys.
		children := make([]pdm.Word, half+1)
		copy(children, node[2+count:2+count+half+1])
		node[1] = pdm.Word(half)
		copy(node[2+half:], children)
		for i := 2 + half + half + 1; i < len(node); i++ {
			node[i] = 0
		}
	}
	t.writeNode(id, node)
	t.writeNode(rightID, right)
	return sep, rightID
}

func (t *Tree) clearLeafTail(node []pdm.Word, from, to int) {
	for i := from; i < to; i++ {
		rec := t.leafRec(node, i)
		for j := range rec {
			rec[j] = 0
		}
	}
}

// insertNonFull descends from a non-full node, splitting full children
// preemptively.
func (t *Tree) insertNonFull(id int, node []pdm.Word, key pdm.Word, sat []pdm.Word) {
	for node[0] == nodeInternal {
		count := int(node[1])
		i := 0
		for i < count && key >= intKey(node, i) {
			i++
		}
		childID := t.intChild(node, i)
		child := t.readNode(childID)
		if t.isFull(child) {
			sep, rightID := t.split(childID, child)
			node = t.insertSeparator(node, i, sep, rightID)
			t.writeNode(id, node)
			if key >= sep {
				childID = rightID
				child = t.readNode(childID)
			} else {
				child = t.readNode(childID)
			}
		}
		id, node = childID, child
	}
	// Leaf: replace or append then sort-insert.
	count := int(node[1])
	for i := 0; i < count; i++ {
		rec := t.leafRec(node, i)
		if rec[0] == key {
			copy(rec[1:], sat)
			t.writeNode(id, node)
			return
		}
	}
	// Find position, shift right.
	pos := 0
	for pos < count && t.leafRec(node, pos)[0] < key {
		pos++
	}
	for i := count; i > pos; i-- {
		copy(t.leafRec(node, i), t.leafRec(node, i-1))
	}
	rec := t.leafRec(node, pos)
	rec[0] = key
	copy(rec[1:], sat)
	node[1] = pdm.Word(count + 1)
	t.writeNode(id, node)
	t.n++
}

// insertSeparator rebuilds an internal node with (sep, rightID) admitted
// at key position i.
func (t *Tree) insertSeparator(node []pdm.Word, i int, sep pdm.Word, rightID int) []pdm.Word {
	count := int(node[1])
	keys := make([]pdm.Word, 0, count+1)
	children := make([]pdm.Word, 0, count+2)
	keys = append(keys, node[2:2+count]...)
	children = append(children, node[2+count:2+count+count+1]...)
	keys = append(keys[:i], append([]pdm.Word{sep}, keys[i:]...)...)
	children = append(children[:i+1], append([]pdm.Word{pdm.Word(rightID)}, children[i+1:]...)...)
	out := make([]pdm.Word, t.nodeWords)
	out[0] = nodeInternal
	out[1] = pdm.Word(count + 1)
	copy(out[2:], keys)
	copy(out[2+count+1:], children)
	return out
}

// Range calls fn for every stored (key, satellite) with lo ≤ key ≤ hi,
// in ascending key order, stopping early if fn returns false. This is
// the "additional property" of B-trees the paper's Section 1.2 notes
// that hash-style dictionaries do not provide ("one does not need the
// additional properties of B-trees (such as range searching)") — it is
// here so the trade-off is demonstrable, not hidden. The satellite
// slice passed to fn is reused between calls.
//
// Cost: one parallel I/O per node visited — Θ(height + leaves touched).
func (t *Tree) Range(lo, hi pdm.Word, fn func(key pdm.Word, sat []pdm.Word) bool) {
	if lo > hi {
		return
	}
	t.rangeNode(t.root, lo, hi, fn)
}

// rangeNode descends and scans; it returns false when fn stopped the
// iteration.
func (t *Tree) rangeNode(id int, lo, hi pdm.Word, fn func(pdm.Word, []pdm.Word) bool) bool {
	node := t.readNode(id)
	count := int(node[1])
	if node[0] == nodeLeaf {
		for i := 0; i < count; i++ {
			rec := t.leafRec(node, i)
			if rec[0] < lo {
				continue
			}
			if rec[0] > hi {
				return false
			}
			if !fn(rec[0], rec[1:]) {
				return false
			}
		}
		return true
	}
	// Internal: children i covers keys < key_i (and the last child the
	// tail); visit every child whose span intersects [lo, hi].
	for i := 0; i <= count; i++ {
		if i < count && intKey(node, i) <= lo {
			continue // this child's span ends at key_i ≤ lo
		}
		if !t.rangeNode(t.intChild(node, i), lo, hi, fn) {
			return false
		}
		if i < count && intKey(node, i) > hi {
			return true
		}
	}
	return true
}

// Delete removes key and reports whether it was present. Deletion is
// lazy (no rebalancing): the tree remains valid, and the space of
// deleted records is reclaimed on later inserts into the same leaf —
// sufficient for a baseline whose role is read-path comparison.
func (t *Tree) Delete(key pdm.Word) bool {
	defer t.span(pdm.TagDelete).End()
	id := t.root
	node := t.readNode(id)
	for node[0] == nodeInternal {
		count := int(node[1])
		i := 0
		for i < count && key >= intKey(node, i) {
			i++
		}
		id = t.intChild(node, i)
		node = t.readNode(id)
	}
	count := int(node[1])
	for i := 0; i < count; i++ {
		if t.leafRec(node, i)[0] == key {
			for j := i; j < count-1; j++ {
				copy(t.leafRec(node, j), t.leafRec(node, j+1))
			}
			t.clearLeafTail(node, count-1, count)
			node[1] = pdm.Word(count - 1)
			t.writeNode(id, node)
			t.n--
			return true
		}
	}
	return false
}
