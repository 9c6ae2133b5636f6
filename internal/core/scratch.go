package core

import (
	"slices"

	"pdmdict/internal/pdm"
	"pdmdict/internal/reuse"
)

// probeScratch is the working set of one lookup or update call: neighbor
// ids, probe addresses, the machine read buffers, the fragment slots the
// in-place bucket scan files records into, the address de-duplication
// tables of the merged read rounds, and an update's placement state and
// write list. Every call draws one from its structure's scratchPool, so a
// warm lookup allocates nothing but the satellite it returns and a warm
// update nothing at all.
//
// Ownership rule: everything in a scratch, and every block view or
// *pdm.BatchError read into buf, buf2 or the retry buffers, is valid
// only until the scratch is released (or the buffer is read into
// again). Nothing handed back to a caller may alias it — results and
// returned errors are always copies — and the addresses passed to the
// machine are, as for any batch, only promised to hooks for the duration
// of the call. An update's writes point into the read buffers: it
// mutates the blocks it read in place and the machine copies them into
// the shards during the write call.
type probeScratch struct {
	ns      []int         // neighbor ids of the key being probed
	one     []pdm.Addr    // one key's probe addresses, in probe order
	buf     pdm.ReadBuf   // blocks of the round in flight
	buf2    pdm.ReadBuf   // cascade updates: a level beyond the first probe, read while round one's blocks still await the write
	retries retryScratch  // a fault-aware round's retries, whose blocks join buf's views
	frags   [][]pdm.Word  // fragment index / replica rank → record data
	memb    [1]pdm.Word   // a membership sub-dictionary's one-word satellite
	fields  []field       // one key's d fields at a level
	words   []pdm.Word    // a satellite decoded from them, copied out on a hit
	view    [][]pdm.Word  // one key's blocks, in probe order
	r1, r2  dedup         // first and second read round
	deep    []deepKey     // cascade lookups: keys beyond the first probe
	ops     []*pdm.Op     // shared rounds: the later round's tokens
	ends    []pdm.SpanEnd // the root lookup spans' ends

	// Updates: the one write list, BasicDict's greedy placement (loads,
	// chosen stripes, changed buckets, one record, a canonical bucket's
	// records and their order), and the free fields of a chain level.
	writes []pdm.BlockWrite
	loads  []int
	chosen []int
	dirty  []bool
	rec    []pdm.Word
	canon  []pdm.Word
	order  []int32
	free   []int

	// Dict: a single-key lookup's batch of one, and the keys the filling
	// structure missed with the draining structure's answers.
	key      [1]pdm.Word
	sat      [1][]pdm.Word
	ok       [1]bool
	missKeys []pdm.Word
	missSats [][]pdm.Word
	missOks  []bool
}

// scratchPool is a structure's free list of probe scratches.
type scratchPool struct{ reuse.Pool[probeScratch] }

func (l *scratchPool) get() *probeScratch { return l.Get() }

// put parks sc for reuse. The fragment slots, answers and write list are
// dropped: the slots may point into a caller's blocks and the answers are
// the caller's satellites, which the list may not pin, and a parked write
// list would only keep stale views alive.
func (l *scratchPool) put(sc *probeScratch) {
	clear(sc.frags[:cap(sc.frags)])
	sc.sat[0] = nil
	clear(sc.missSats)
	clear(sc.writes[:cap(sc.writes)])
	l.Put(sc)
}

// flush issues an update's write list as one batch, keeping only the
// last write to each address, and keeps the list's storage for the next
// update. An empty list issues nothing.
func (sc *probeScratch) flush(m *pdm.Machine, op *pdm.Op, writes []pdm.BlockWrite) {
	sc.writes = writes[:0]
	if len(writes) > 0 {
		m.BatchWriteOp(op, dedupeWrites(writes))
	}
}

// dedupeWrites keeps only the last write to each address, preserving
// order otherwise: an update that touches one block twice (release and
// re-place) must not resurrect stale contents. An update writes at most
// 2t + d blocks, so a pairwise pass beats a map.
func dedupeWrites(writes []pdm.BlockWrite) []pdm.BlockWrite {
	out := writes[:0]
	for i, w := range writes {
		last := true
		for _, later := range writes[i+1:] {
			if later.Addr == w.Addr {
				last = false
				break
			}
		}
		if last {
			out = append(out, w)
		}
	}
	return out
}

// stripeMarks returns the scratch's d per-stripe marks, all false.
func (sc *probeScratch) stripeMarks(d int) []bool {
	if cap(sc.dirty) < d {
		sc.dirty = make([]bool, d)
	}
	sc.dirty = sc.dirty[:d]
	clear(sc.dirty)
	return sc.dirty
}

// decoded returns the scratch's satellite words, n of them.
func (sc *probeScratch) decoded(n int) []pdm.Word {
	if cap(sc.words) < n {
		sc.words = make([]pdm.Word, n)
	}
	sc.words = sc.words[:n]
	return sc.words
}

// answerBuf returns dst emptied when it can hold an n-word satellite,
// and a new empty slice of capacity n otherwise: a lookup answers into
// the caller's slice when it has room.
func answerBuf(dst []pdm.Word, n int) []pdm.Word {
	if cap(dst) < n {
		return make([]pdm.Word, 0, n)
	}
	return dst[:0]
}

// fragSlots returns k empty fragment slots.
func (sc *probeScratch) fragSlots(k int) [][]pdm.Word {
	if cap(sc.frags) < k {
		sc.frags = make([][]pdm.Word, k)
	}
	sc.frags = sc.frags[:k]
	clear(sc.frags)
	return sc.frags
}

// openSpans opens a lookup's root spans as the machine attributes its
// reads: one for op, or one per participant of a shared round.
// closeSpans ends them innermost first.
func (sc *probeScratch) openSpans(m *pdm.Machine, tag pdm.Tag, op *pdm.Op, shared []*pdm.Op) {
	if len(shared) == 0 {
		shared = []*pdm.Op{op}
	}
	sc.ends = sc.ends[:0]
	for _, o := range shared {
		sc.ends = append(sc.ends, m.OpSpan(o, tag))
	}
}

func (sc *probeScratch) closeSpans() {
	for i := len(sc.ends) - 1; i >= 0; i-- {
		sc.ends[i].End()
	}
	clear(sc.ends)
}

// hasNil reports whether a key's view lacks a block: a failed
// degraded-mode read, which leaves a miss inconclusive.
func hasNil(view [][]pdm.Word) bool {
	return slices.ContainsFunc(view, func(b []pdm.Word) bool { return b == nil })
}

// dedup merges the probe addresses of many keys into one fetch list:
// addrs holds the distinct addresses in first-seen order, and idx maps
// every (key, probe position) to its address's place in that list, flat
// with a fixed number of positions per key. Membership is an
// open-addressing table over addrs (slot = place + 1, 0 = empty) rather
// than a map[pdm.Addr]int32 kept and cleared per batch: a 64-key batch
// files some 2 500 addresses, and on the batch-read workload the table
// was faster in ten of ten alternating pairs, by a median 1.45× in keys/s.
type dedup struct {
	slots []int32
	addrs []pdm.Addr
	idx   []int32
}

func (dd *dedup) reset() {
	clear(dd.slots)
	dd.addrs = dd.addrs[:0]
	dd.idx = dd.idx[:0]
}

// add appends one key's probe addresses.
func (dd *dedup) add(one []pdm.Addr) {
	for _, a := range one {
		if 2*len(dd.addrs) >= len(dd.slots) {
			dd.grow()
		}
		mask := len(dd.slots) - 1
		i := addrHash(a) & mask
		for dd.slots[i] != 0 && dd.addrs[dd.slots[i]-1] != a {
			i = (i + 1) & mask
		}
		if dd.slots[i] == 0 {
			dd.addrs = append(dd.addrs, a)
			dd.slots[i] = int32(len(dd.addrs))
		}
		dd.idx = append(dd.idx, dd.slots[i]-1)
	}
}

// grow doubles the table (keeping it under half full) and re-files the
// addresses seen so far.
func (dd *dedup) grow() {
	n := 2 * len(dd.slots)
	if n < 64 {
		n = 64
	}
	dd.slots = make([]int32, n)
	for j, a := range dd.addrs {
		i := addrHash(a) & (n - 1)
		for dd.slots[i] != 0 {
			i = (i + 1) & (n - 1)
		}
		dd.slots[i] = int32(j + 1)
	}
}

func addrHash(a pdm.Addr) int {
	h := uint64(a.Disk)*0x9e3779b97f4a7c15 ^ uint64(a.Block)*0xbf58476d1ce4e5b9
	return int((h ^ h>>31) & (1<<31 - 1))
}

// keyBlocks fills view with the k-th key's blocks out of the fetched
// list, in that key's probe order.
func (dd *dedup) keyBlocks(k int, flat, view [][]pdm.Word) {
	for i := range view {
		view[i] = flat[dd.idx[k*len(view)+i]]
	}
}

// markMissing marks in need the fetched-list places of the k-th key's
// missing (nil) blocks at view positions [lo, hi), view holding that
// key's blocks, and reports whether it marked any.
func (dd *dedup) markMissing(k int, view [][]pdm.Word, lo, hi int, need []bool) bool {
	marked := false
	for i := lo; i < hi; i++ {
		if view[i] == nil {
			need[dd.idx[k*len(view)+i]] = true
			marked = true
		}
	}
	return marked
}

// keyView returns the scratch's per-key block view, width entries long.
func (sc *probeScratch) keyView(width int) [][]pdm.Word {
	if cap(sc.view) < width {
		sc.view = make([][]pdm.Word, width)
	}
	return sc.view[:width]
}
