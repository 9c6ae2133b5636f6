package core

import (
	"cmp"
	"fmt"
	"slices"

	"pdmdict/internal/bucket"
	"pdmdict/internal/pdm"
)

// Degraded-mode operation and repair. The replicate-mode BasicDict
// (BasicConfig.Replicate) stores K full copies of every key on K
// distinct disks, so it tolerates up to K−1 disk failures: LookupTry
// answers from any surviving replica, Repair rebuilds a lost disk's
// stripe from the survivors, and Scrub sweeps the whole structure with
// verified reads. Transient errors are absorbed by re-issuing failed
// addresses as their own accounted batches, governed by the structure's
// pdm.RetryPolicy (SetRetryPolicy): retry count, modeled backoff
// charged as parallel-I/O steps, and optional hedging. Scrub, Repair
// and the heal jobs re-issue every transiently failed address, since
// every block is theirs to check; a lookup re-issues only the blocks
// some key it has not yet settled still needs, so a key a surviving
// replica already answered costs no retry round. The zero-value policy
// is three immediate retries.

// splitTransient moves the transient failures whose slot need marks
// (every one, when need is nil) out of be: their indices into the
// failing batch are appended to idx, and be keeps the rest, in order,
// in place. A BlockError's Err is one of pdm's bare sentinels, so == is
// exact; errors.Is would run the runtime's interface switch on every
// permanent failure, whose cache fill allocates at a random call.
func splitTransient(be *pdm.BatchError, idx []int, need []bool) []int {
	kept := be.Blocks[:0]
	for _, b := range be.Blocks {
		if b.Err == pdm.ErrTransient && (need == nil || need[b.Index]) {
			idx = append(idx, b.Index)
		} else {
			kept = append(kept, b)
		}
	}
	be.Blocks = kept
	return idx
}

// retryScratch is the working set of a fault-aware read's recovery: a
// retry round's slots (indices into the original batch) and addresses,
// one read buffer per retry attempt, whose views the recovered slots
// alias, and a lookup's marks of the slots it still needs.
type retryScratch struct {
	idx   []int
	addrs []pdm.Addr
	bufs  []pdm.ReadBuf
	need  []bool
}

// marks returns n cleared need marks, one per slot of the batch.
func (rs *retryScratch) marks(n int) []bool {
	if cap(rs.need) < n {
		rs.need = make([]bool, n)
	}
	rs.need = rs.need[:n]
	clear(rs.need)
	return rs.need
}

// tryReadPolicy is TryBatchRead plus policy-driven recovery of every
// block, attributed to op (nil = unattributed): addresses that failed
// transiently are re-issued by retry rounds, up to pol.Retries() of
// them. It is the read of Scrub, Repair and the heal jobs, which check
// every block; a lookup drives the same rounds itself, restricted to
// the blocks its answer still needs. The returned slice has nil entries
// for accesses that never succeeded; the error, if any, lists exactly
// those entries with indices into the original batch.
//
// The first attempt reads into rb and retry attempt r into rs.bufs[r],
// so the returned views are valid until rb is read again or rs is
// reused. The error is the first attempt's, rewritten in place as
// rounds recover or fail, and aliases rb under the same rule. On warm
// buffers the call allocates nothing, however many rounds it takes.
func tryReadPolicy(m *pdm.Machine, rs *retryScratch, rb *pdm.ReadBuf, op *pdm.Op, pol pdm.RetryPolicy, addrs []pdm.Addr) ([][]pdm.Word, error) {
	blocks, err := m.TryBatchReadInto(rb, op, nil, addrs)
	for attempt, retried := 0, true; retried && err != nil && attempt < pol.Retries(); attempt++ {
		retried, err = rs.retry(m, op, pol, attempt, addrs, blocks, err, nil)
	}
	return blocks, err
}

// retry is recovery round attempt (from 0) of a fault-aware read of
// addrs that left blocks and err: the transient failures err lists in
// slots need marks (all of them, for a nil need) are re-issued as their
// own accounted batch, after charging the policy's modeled backoff (an
// addr-less charge under the "backoff" span). With pol.Hedge, a retried
// address whose disk the machine considers Suspect or recently stalling
// is issued TWICE in the retry batch and either copy fills the slot —
// the hedged second request. (Replica blocks are not bit-identical in
// this layout and a probe batch already spans all replicas, so the
// hedge re-requests the lagging block itself; falling back to surviving
// replicas is the caller's assembly step.) Recovered blocks fill their
// nil slots of blocks, and the error is rewritten in place and
// returned. retried is false, and nothing issued, when err is not a
// batch error or lists no transient failure in a marked slot; the
// caller bounds attempt by pol.Retries().
func (rs *retryScratch) retry(m *pdm.Machine, op *pdm.Op, pol pdm.RetryPolicy, attempt int, addrs []pdm.Addr, blocks [][]pdm.Word, err error, need []bool) (retried bool, _ error) {
	be, ok := pdm.AsBatchError(err)
	if !ok {
		return false, err
	}
	rs.idx = splitTransient(be, rs.idx[:0], need)
	if len(rs.idx) == 0 {
		return false, err
	}
	rs.addrs = rs.addrs[:0]
	for _, j := range rs.idx {
		rs.addrs = append(rs.addrs, addrs[j])
	}
	if b := pol.Backoff(attempt + 1); b > 0 {
		endBackoff := m.OpSpan(op, pdm.TagBackoff)
		m.ChargeSteps(op, b)
		endBackoff.End()
	}
	if pol.Hedge {
		hedged := 0
		primaries := len(rs.addrs)
		for i := 0; i < primaries; i++ {
			if m.SuspectOrStalling(rs.addrs[i].Disk) {
				rs.idx = append(rs.idx, rs.idx[i])
				rs.addrs = append(rs.addrs, rs.addrs[i])
				hedged++
			}
		}
		m.NoteHedges(hedged)
	}
	m.NoteRetry()
	if len(rs.bufs) == attempt {
		rs.bufs = append(rs.bufs, pdm.ReadBuf{})
	}
	got, rerr := m.TryBatchReadInto(&rs.bufs[attempt], op, nil, rs.addrs)
	for i, j := range rs.idx {
		if blocks[j] == nil {
			blocks[j] = got[i]
		}
	}
	if rerr != nil {
		rbe, ok := pdm.AsBatchError(rerr)
		if !ok {
			return true, rerr
		}
		// Merge this round's failures back onto original batch indices,
		// after the ones it did not retry. A slot whose hedged twin
		// succeeded is not a failure; a slot whose two copies both
		// failed is reported once.
		kept := len(be.Blocks)
		for _, b := range rbe.Blocks {
			slot := rs.idx[b.Index]
			if blocks[slot] != nil || reported(be.Blocks[kept:], slot) {
				continue
			}
			be.Blocks = append(be.Blocks, pdm.BlockError{Index: slot, Addr: b.Addr, Err: b.Err})
		}
	}
	if len(be.Blocks) == 0 {
		return true, nil
	}
	return true, be
}

// reported reports whether errs already lists slot.
func reported(errs []pdm.BlockError, slot int) bool {
	for _, e := range errs {
		if e.Index == slot {
			return true
		}
	}
	return false
}

// inconclusiveError is a lookup round's error as its caller sees it:
// nil when every key was settled, otherwise a copy, since the error the
// read returned aliases the scratch, which goes back to the pool.
func inconclusiveError(inconclusive int, err error) error {
	if inconclusive == 0 {
		return nil
	}
	if be, ok := pdm.AsBatchError(err); ok {
		return &pdm.BatchError{Blocks: slices.Clone(be.Blocks)}
	}
	return err
}

// tryWritePolicy is TryBatchWriteOp plus the same policy-driven retry and
// backoff (writes are never hedged: issuing a write twice has no upside
// — the second copy lands on the same block). The error, if any, is the
// first attempt's, rewritten in place as for tryReadPolicy.
func tryWritePolicy(m *pdm.Machine, op *pdm.Op, pol pdm.RetryPolicy, writes []pdm.BlockWrite) error {
	err := m.TryBatchWriteOp(op, writes)
	maxRetries := pol.Retries()
	var retryIdx []int
	var retryWrites []pdm.BlockWrite
	for attempt := 0; err != nil && attempt < maxRetries; attempt++ {
		be, ok := pdm.AsBatchError(err)
		if !ok {
			return err
		}
		retryIdx = splitTransient(be, retryIdx[:0], nil)
		if len(retryIdx) == 0 {
			return err
		}
		retryWrites = retryWrites[:0]
		for _, j := range retryIdx {
			retryWrites = append(retryWrites, writes[j])
		}
		if b := pol.Backoff(attempt + 1); b > 0 {
			endBackoff := m.OpSpan(op, pdm.TagBackoff)
			m.ChargeSteps(op, b)
			endBackoff.End()
		}
		m.NoteRetry()
		rerr := m.TryBatchWriteOp(op, retryWrites)
		if rerr == nil {
			if len(be.Blocks) == 0 {
				return nil
			}
			return be
		}
		rbe, ok := pdm.AsBatchError(rerr)
		if !ok {
			return rerr
		}
		for _, b := range rbe.Blocks {
			be.Blocks = append(be.Blocks, pdm.BlockError{Index: retryIdx[b.Index], Addr: b.Addr, Err: b.Err})
		}
		err = be
	}
	return err
}

// canonicalize rewrites a bucket's blocks, in place, into the canonical
// layout: records sorted by (key, tag word), packed sequentially from
// block 0, the rest of every block zero. Canonical blocks are a pure
// function of the record set, so two encodings of the same records are
// bit-identical — the invariant replica-based repair depends on. The
// records are staged in the scratch while the blocks are rewritten.
func (bd *BasicDict) canonicalize(sc *probeScratch, blocks [][]pdm.Word) {
	rw := bd.codec.RecordWords()
	recs := sc.canon[:0]
	for _, blk := range blocks {
		recs = append(recs, blk[1:1+bd.codec.Count(blk)*rw]...)
	}
	sc.canon = recs
	n := len(recs) / rw
	order := sc.order[:0]
	for i := 0; i < n; i++ {
		order = append(order, int32(i*rw))
	}
	sc.order = order
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(recs[a], recs[b]); c != 0 {
			return c
		}
		return cmp.Compare(recs[a+1], recs[b+1])
	})
	per := bd.codec.Capacity()
	for b, blk := range blocks {
		lo := min(b*per, n)
		hi := min(lo+per, n)
		clear(blk)
		blk[0] = pdm.Word(hi - lo)
		for i, off := range order[lo:hi] {
			copy(blk[1+i*rw:], recs[off:int(off)+rw])
		}
	}
}

// encodeCanonical lays a record set out canonically over nBlocks fresh
// blocks.
func (bd *BasicDict) encodeCanonical(recs []bucket.Record, nBlocks int) [][]pdm.Word {
	out := make([][]pdm.Word, nBlocks)
	for b := range out {
		out[b] = make([]pdm.Word, bd.codec.B)
	}
	b := 0
	for _, r := range recs {
		for b < nBlocks && !bd.codec.AppendAlways(out[b], r) {
			b++
		}
		if b == nBlocks {
			panic(fmt.Sprintf("core: %d records exceed bucket capacity %d", len(recs), nBlocks*bd.codec.Capacity()))
		}
	}
	sc := bd.scratch.get()
	defer bd.scratch.put(sc)
	bd.canonicalize(sc, out)
	return out
}

// LookupTry is Lookup through the fault layer: the d buckets of Γ(x)
// are read with verified reads, and the answer is assembled from
// whatever survives. In replicate mode any one live replica suffices,
// so the answer stays correct under up to K−1 failed disks; in fragment
// mode all K fragments are still required. A transiently failed bucket
// is retried only while x is unsettled — no verified replica (or not
// all K fragments) yet, or, for a miss, some bucket still missing — so
// a hit a surviving replica answers costs exactly the one probe. The
// error is non-nil only when the surviving data cannot settle the
// query — the caller knows the answer is unavailable rather than
// "absent".
func (bd *BasicDict) LookupTry(x pdm.Word) ([]pdm.Word, bool, error) {
	return bd.LookupTryOp(nil, x)
}

// LookupTryOp is LookupTry attributed to the operation token op and
// governed by the structure's retry policy: the probe, every retry
// batch, and any modeled backoff are charged to op, so recovery I/O
// shows up under the operation that needed it — at most pol.Retries()
// rounds beyond the probe. A nil op keeps the legacy shared-stack
// attribution.
func (bd *BasicDict) LookupTryOp(op *pdm.Op, x pdm.Word) ([]pdm.Word, bool, error) {
	var sat [1][]pdm.Word
	var ok [1]bool
	if _, err := bd.lookup(op, nil, []pdm.Word{x}, sat[:], ok[:], true); err != nil {
		return nil, false, fmt.Errorf("core: degraded lookup for key %d inconclusive: %w", x, err)
	}
	return sat[0], ok[0], nil
}

// Repair rebuilds every bucket of one stripe (= one disk of the
// dictionary's region, in replicate mode always one physical disk) from
// the replicas on the surviving stripes, writing the canonical encoding
// of each reconstructed bucket. After a fail-stop + WipeDisk (blank
// replacement drive), a successful Repair leaves the stripe
// bit-identical to what was lost, because every bucket was canonical
// before the failure too.
//
// Cost: v/d read rows (each one parallel I/O per BucketBlocks layer,
// spanning the d−1 surviving disks) plus v/d bucket writes on the
// repaired disk — O(v/d · BucketBlocks) parallel I/Os total.
//
// Repair requires Replicate mode with K ≥ 2 (otherwise there are no
// surviving copies to rebuild from) and fails if a surviving replica
// cannot be read even after retries. It is a RepairJob run start to
// finish under one hold of the write lock: the job is never registered,
// since no update can interleave with it.
func (bd *BasicDict) Repair(disk int) error {
	j, err := bd.newRepairJob(disk)
	if err != nil {
		return err
	}
	bd.mu.Lock()
	defer bd.mu.Unlock()
	defer bd.reg.m.Span(pdm.TagRepair).End()
	for r := range j.rows {
		if err := j.collectRowLocked(nil, r); err != nil {
			return err
		}
	}
	for r := range j.rows {
		if err := j.writeRowLocked(nil, r); err != nil {
			return err
		}
	}
	return nil
}

// Scrub sweeps every bucket of the dictionary with verified reads (one
// row of buckets per batch — one parallel I/O per BucketBlocks layer)
// and returns the addresses whose blocks are unreadable or fail their
// checksum, after transient retries. A completely clean scrub clears
// the machine's degraded flag.
func (bd *BasicDict) Scrub() []pdm.Addr {
	bd.mu.RLock()
	defer bd.mu.RUnlock()
	defer bd.reg.m.Span(pdm.TagScrub).End()
	d := bd.reg.nDisks
	rows := ceilDiv(bd.buckets, d)
	var bad []pdm.Addr
	for r := 0; r < rows; r++ {
		var addrs []pdm.Addr
		for t := 0; t < d; t++ {
			var y int
			if bd.striped != nil {
				y = t*bd.striped.StripeSize() + r
			} else {
				y = r*d + t
			}
			if y >= bd.buckets {
				continue
			}
			addrs = bd.bucketAddrs(y, addrs)
		}
		_, err := tryReadPolicy(bd.reg.m, new(retryScratch), new(pdm.ReadBuf), nil, bd.retry, addrs)
		if err == nil {
			continue
		}
		if be, ok := pdm.AsBatchError(err); ok {
			for _, b := range be.Blocks {
				bad = append(bad, b.Addr)
			}
		}
	}
	if len(bad) == 0 {
		bd.reg.m.ClearDegraded()
	}
	return bad
}
