package core

import (
	"pdmdict/internal/pdm"
	"pdmdict/internal/reuse"
)

// probeScratch is the working set of one lookup call: neighbor ids,
// probe addresses, the machine read buffer, the fragment slots the
// in-place bucket scan files records into, and — for the batch forms —
// the address de-duplication tables. Every lookup draws one from its
// structure's scratchPool, so a warm lookup allocates nothing but the
// satellite it returns.
//
// Ownership rule: everything in a scratch, and every block view read
// into buf, is valid only until the scratch is released (or buf is read
// into again). Nothing handed back to a caller may alias it — results
// are always copies — and the addresses passed to the machine are, as
// for any batch, only promised to hooks for the duration of the call.
type probeScratch struct {
	ns     []int        // neighbor ids of the key being probed
	one    []pdm.Addr   // one key's probe addresses, in probe order
	buf    pdm.ReadBuf  // blocks of the round in flight
	frags  [][]pdm.Word // fragment index / replica rank → record data
	memb   [1]pdm.Word  // a membership sub-dictionary's one-word satellite
	fields [][]pdm.Word // one key's d chain fields
	view   [][]pdm.Word // batch forms: one key's blocks, in probe order
	r1, r2 dedup        // batch forms: first and second read round
	deep   []deepKey    // DynamicDict batch forms: keys below A_1
	ops    []*pdm.Op    // shared rounds: the deep keys' tokens
	ends   []func()     // shared rounds: the participants' span closers
}

// scratchPool is a structure's free list of probe scratches.
type scratchPool struct{ reuse.Pool[probeScratch] }

func (l *scratchPool) get() *probeScratch { return l.Get() }

// put parks sc for reuse. The fragment slots are dropped: on the update
// paths they point into a caller-owned buffer the list must not pin.
func (l *scratchPool) put(sc *probeScratch) {
	clear(sc.frags[:cap(sc.frags)])
	l.Put(sc)
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

// openSpans opens one root lookup span per participant of a shared
// round; closeSpans ends them innermost first.
func (sc *probeScratch) openSpans(m *pdm.Machine, tag string, ops []*pdm.Op) {
	sc.ends = sc.ends[:0]
	for _, op := range ops {
		sc.ends = append(sc.ends, m.OpSpan(op, tag))
	}
}

func (sc *probeScratch) closeSpans() {
	for i := len(sc.ends) - 1; i >= 0; i-- {
		sc.ends[i]()
		sc.ends[i] = nil
	}
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

// keyView returns the scratch's per-key block view, width entries long.
func (sc *probeScratch) keyView(width int) [][]pdm.Word {
	if cap(sc.view) < width {
		sc.view = make([][]pdm.Word, width)
	}
	return sc.view[:width]
}
