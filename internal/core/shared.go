package core

// Shared lookup rounds: the group-commit scheduler (internal/sched)
// collects concurrent single-key lookups from many callers and executes
// them as ONE merged probe set via the machine's BatchReadShared, so a
// burst of b independent clients costs the deepest per-disk queue of
// distinct blocks instead of b sequential rounds. Unlike LookupBatchOp
// (one token amortized over the batch's keys), a shared round carries
// one token PER participant: every op on the attribution list is
// charged the merged round's full cost once — splitting it would make
// the per-op worst-case bounds meaningless — and each op gets its own
// root span, so the accountant sees b distinct operations that happen
// to share their I/O.
//
// The contract for every LookupSharedOp below: len(ops) == len(keys),
// every ops[i] is non-nil, distinct, and owned by a caller that is
// blocked while the dispatching goroutine runs (the dispatcher is the
// op's single toucher, which makes the span frames safe).

import (
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// LookupSharedOp resolves keys[i] on behalf of ops[i] in one merged,
// de-duplicated read round. Results align positionally with keys.
func (bd *BasicDict) LookupSharedOp(ops []*pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool) {
	bd.mu.RLock()
	defer bd.mu.RUnlock()
	sc := bd.scratch.get()
	defer bd.scratch.put(sc)
	sc.openSpans(bd.reg.m, obs.TagLookup, ops)
	bd.mergeProbes(sc, keys)
	flat := bd.reg.m.BatchReadInto(&sc.buf, nil, ops, sc.r1.addrs)
	sats, oks, _ := bd.resolveMerged(sc, keys, flat)
	sc.closeSpans()
	return sats, oks
}

// LookupSharedOp resolves keys[i] on behalf of ops[i] in at most two
// merged rounds: one for every key's membership buckets and A_1 fields,
// and one shared by the (rare) keys resident in deeper arrays — the
// second round is attributed only to the deep keys' ops, so shallow
// participants are charged exactly one round.
func (dd *DynamicDict) LookupSharedOp(ops []*pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool) {
	dd.mu.RLock()
	defer dd.mu.RUnlock()
	sc := dd.scratch.get()
	defer dd.scratch.put(sc)
	sc.openSpans(dd.m, obs.TagLookup, ops)
	sats, oks := dd.lookupMergedLocked(sc, nil, ops, keys)
	sc.closeSpans()
	return sats, oks
}

// LookupSharedOp resolves keys[i] on behalf of ops[i] in exactly ONE
// merged read round — the single-probe guarantee extends to shared
// rounds, since every key's membership and field blocks merge into the
// same parallel I/O.
func (op *OneProbeDict) LookupSharedOp(ops []*pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool) {
	op.mu.RLock()
	defer op.mu.RUnlock()
	sc := op.scratch.get()
	defer op.scratch.put(sc)
	sc.openSpans(op.m, obs.TagLookup, ops)
	sats, oks := op.lookupMergedLocked(sc, nil, ops, keys)
	sc.closeSpans()
	return sats, oks
}

// LookupSharedOp resolves keys[i] on behalf of ops[i] through the
// rebuild wrapper: the filling structure (if a migration is in flight)
// answers a first shared round, and only the keys it misses ride a
// second shared round against the draining structure — attributed to
// just their ops. The ledger gains one Op per participant, each charged
// its own exact cost (the merged rounds it rode, in full).
func (d *Dict) LookupSharedOp(ops []*pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	m := d.active.machine()
	befores := make([]int64, len(ops))
	ends := make([]func(), len(ops))
	for i, op := range ops {
		befores[i] = op.MaxMachineSteps()
		ends[i] = m.OpSpan(op, obs.TagLookup)
	}
	var sats [][]pdm.Word
	var oks []bool
	if d.next != nil {
		sats, oks = d.next.LookupSharedOp(ops, keys)
		var missKeys []pdm.Word
		var missOps []*pdm.Op
		var missIdx []int
		for i, ok := range oks {
			if !ok {
				missKeys = append(missKeys, keys[i])
				missOps = append(missOps, ops[i])
				missIdx = append(missIdx, i)
			}
		}
		if len(missKeys) > 0 {
			ms, mo := d.active.LookupSharedOp(missOps, missKeys)
			for j, i := range missIdx {
				sats[i], oks[i] = ms[j], mo[j]
			}
		}
	} else {
		sats, oks = d.active.LookupSharedOp(ops, keys)
	}
	for i := len(ends) - 1; i >= 0; i-- {
		ends[i]()
	}
	d.statsMu.Lock()
	for i, op := range ops {
		cost := op.MaxMachineSteps() - befores[i]
		d.stats.Ops++
		d.stats.ParallelIOs += cost
		if cost > d.stats.WorstOp {
			d.stats.WorstOp = cost
		}
	}
	d.statsMu.Unlock()
	return sats, oks
}

// StepCount returns the active structure's machine step counter — the
// deterministic logical clock the scheduler's step-budget admission
// window runs on.
func (d *Dict) StepCount() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.active.machine().StepCount()
}
