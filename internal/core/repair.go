package core

import (
	"errors"
	"fmt"
	"sort"

	"pdmdict/internal/bucket"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// Degraded-mode operation and repair. The replicate-mode BasicDict
// (BasicConfig.Replicate) stores K full copies of every key on K
// distinct disks, so it tolerates up to K−1 disk failures: LookupTry
// answers from any surviving replica, Repair rebuilds a lost disk's
// stripe from the survivors, and Scrub sweeps the whole structure with
// verified reads. Transient errors are absorbed by re-issuing just the
// failed addresses as their own accounted batches, governed by the
// structure's pdm.RetryPolicy (SetRetryPolicy): retry count, modeled
// backoff charged as parallel-I/O steps, and optional hedging. The
// zero-value policy reproduces the historical behavior (three immediate
// retries) exactly, batch for batch.

// splitTransient partitions a batch error into retryable accesses
// (transient) and permanent ones. idx maps positions of the failing
// batch back to the caller's original batch (nil = identity).
func splitTransient(be *pdm.BatchError) (retryIdx []int, retryable []pdm.BlockError, permanent []pdm.BlockError) {
	for _, b := range be.Blocks {
		if errors.Is(b.Err, pdm.ErrTransient) {
			retryIdx = append(retryIdx, b.Index)
			retryable = append(retryable, b)
		} else {
			permanent = append(permanent, b)
		}
	}
	return retryIdx, retryable, permanent
}

// tryReadPolicy is TryBatchRead plus policy-driven recovery, attributed
// to op (nil = unattributed): addresses that failed transiently are
// re-issued as their own accounted batches, up to pol.Retries() times,
// after charging the policy's modeled backoff (an addr-less charge
// under the "backoff" span). With pol.Hedge, a retried address whose
// disk the machine considers Suspect or recently stalling is issued
// TWICE in the retry batch and either copy fills the slot — the hedged
// second request. (Replica blocks are not bit-identical in this layout
// and a probe batch already spans all replicas, so the hedge re-requests
// the lagging block itself; falling back to surviving replicas is the
// caller's assembly step.) The returned slice has nil entries for
// accesses that never succeeded; the error, if any, lists exactly those
// entries with indices into the original batch. The first attempt reads
// into rb, whose ownership rule the returned views inherit; the (rare)
// retry rounds read into fresh buffers, since their blocks join views
// that must outlive the round.
func tryReadPolicy(m *pdm.Machine, rb *pdm.ReadBuf, op *pdm.Op, pol pdm.RetryPolicy, addrs []pdm.Addr) ([][]pdm.Word, error) {
	blocks, err := m.TryBatchReadInto(rb, op, nil, addrs)
	maxRetries := pol.Retries()
	for attempt := 0; err != nil && attempt < maxRetries; attempt++ {
		be, ok := pdm.AsBatchError(err)
		if !ok {
			return blocks, err
		}
		retryIdx, retryable, permanent := splitTransient(be)
		if len(retryable) == 0 {
			return blocks, err
		}
		retryAddrs := make([]pdm.Addr, len(retryable))
		for i, b := range retryable {
			retryAddrs[i] = b.Addr
		}
		if b := pol.Backoff(attempt + 1); b > 0 {
			endBackoff := m.OpSpan(op, obs.TagBackoff)
			m.ChargeSteps(op, b)
			endBackoff()
		}
		if pol.Hedge {
			hedged := 0
			primaries := len(retryAddrs)
			for i := 0; i < primaries; i++ {
				if m.SuspectOrStalling(retryAddrs[i].Disk) {
					retryIdx = append(retryIdx, retryIdx[i])
					retryAddrs = append(retryAddrs, retryAddrs[i])
					hedged++
				}
			}
			m.NoteHedges(hedged)
		}
		m.NoteRetry()
		got, rerr := m.TryBatchReadOp(op, retryAddrs)
		for i, j := range retryIdx {
			if blocks[j] == nil {
				blocks[j] = got[i]
			}
		}
		if rerr == nil {
			if len(permanent) == 0 {
				return blocks, nil
			}
			return blocks, &pdm.BatchError{Blocks: permanent}
		}
		rbe, ok := pdm.AsBatchError(rerr)
		if !ok {
			return blocks, rerr
		}
		// Merge this round's failures back onto original batch indices. A
		// slot whose hedged twin succeeded is not a failure; a slot whose
		// two copies both failed is reported once.
		merged := permanent
		reported := make(map[int]bool)
		for _, b := range rbe.Blocks {
			slot := retryIdx[b.Index]
			if blocks[slot] != nil || reported[slot] {
				continue
			}
			reported[slot] = true
			merged = append(merged, pdm.BlockError{Index: slot, Addr: b.Addr, Err: b.Err})
		}
		if len(merged) == 0 {
			return blocks, nil
		}
		err = &pdm.BatchError{Blocks: merged}
	}
	return blocks, err
}

// tryWritePolicy is TryBatchWrite plus the same policy-driven retry and
// backoff (writes are never hedged: issuing a write twice has no upside
// — the second copy lands on the same block).
func tryWritePolicy(m *pdm.Machine, op *pdm.Op, pol pdm.RetryPolicy, writes []pdm.BlockWrite) error {
	err := m.TryBatchWriteOp(op, writes)
	maxRetries := pol.Retries()
	for attempt := 0; err != nil && attempt < maxRetries; attempt++ {
		be, ok := pdm.AsBatchError(err)
		if !ok {
			return err
		}
		retryIdx, retryable, permanent := splitTransient(be)
		if len(retryable) == 0 {
			return err
		}
		retryWrites := make([]pdm.BlockWrite, len(retryable))
		for i, idx := range retryIdx {
			retryWrites[i] = writes[idx]
		}
		if b := pol.Backoff(attempt + 1); b > 0 {
			endBackoff := m.OpSpan(op, obs.TagBackoff)
			m.ChargeSteps(op, b)
			endBackoff()
		}
		m.NoteRetry()
		rerr := m.TryBatchWriteOp(op, retryWrites)
		if rerr == nil {
			if len(permanent) == 0 {
				return nil
			}
			return &pdm.BatchError{Blocks: permanent}
		}
		rbe, ok := pdm.AsBatchError(rerr)
		if !ok {
			return rerr
		}
		merged := permanent
		for _, b := range rbe.Blocks {
			merged = append(merged, pdm.BlockError{Index: retryIdx[b.Index], Addr: b.Addr, Err: b.Err})
		}
		err = &pdm.BatchError{Blocks: merged}
	}
	return err
}

// canonicalBlocks re-encodes a bucket's blocks into the canonical
// layout: records sorted by (key, tag word), packed sequentially from
// block 0. Canonical blocks are a pure function of the record set, so
// two encodings of the same records are bit-identical — the invariant
// replica-based repair depends on. Nil blocks contribute no records.
func (bd *BasicDict) canonicalBlocks(blocks [][]pdm.Word) [][]pdm.Word {
	var recs []bucket.Record
	for _, blk := range blocks {
		if blk == nil {
			continue
		}
		for _, r := range bd.codec.Decode(blk) {
			recs = append(recs, bucket.Record{Key: r.Key, Sat: append([]pdm.Word(nil), r.Sat...)})
		}
	}
	return bd.encodeCanonical(recs, len(blocks))
}

// encodeCanonical lays a record set out canonically over nBlocks fresh
// blocks.
func (bd *BasicDict) encodeCanonical(recs []bucket.Record, nBlocks int) [][]pdm.Word {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Key != recs[j].Key {
			return recs[i].Key < recs[j].Key
		}
		return recs[i].Sat[0] < recs[j].Sat[0]
	})
	per := bd.codec.Capacity()
	if len(recs) > nBlocks*per {
		panic(fmt.Sprintf("core: %d records exceed bucket capacity %d", len(recs), nBlocks*per))
	}
	out := make([][]pdm.Word, nBlocks)
	for b := range out {
		lo := b * per
		if lo > len(recs) {
			lo = len(recs)
		}
		hi := lo + per
		if hi > len(recs) {
			hi = len(recs)
		}
		out[b] = bd.codec.Encode(recs[lo:hi])
	}
	return out
}

// LookupTry is Lookup through the fault layer: the d buckets of Γ(x)
// are read with verified reads (transient failures retried), and the
// answer is assembled from whatever survives. In replicate mode any one
// live replica suffices, so the answer stays correct under up to K−1
// failed disks; in fragment mode all K fragments are still required.
// The error is non-nil only when the surviving data cannot settle the
// query — the caller knows the answer is unavailable rather than
// "absent".
func (bd *BasicDict) LookupTry(x pdm.Word) ([]pdm.Word, bool, error) {
	return bd.LookupTryOp(nil, x)
}

// LookupTryOp is LookupTry attributed to the operation token op and
// governed by the structure's retry policy: the probe, every retry
// batch, and any modeled backoff are charged to op, so recovery I/O
// shows up under the operation that needed it. A nil op keeps the
// legacy shared-stack attribution.
func (bd *BasicDict) LookupTryOp(op *pdm.Op, x pdm.Word) ([]pdm.Word, bool, error) {
	bd.mu.RLock()
	defer bd.mu.RUnlock()
	defer bd.reg.m.OpSpan(op, obs.TagLookup)()
	sc := bd.scratch.get()
	defer bd.scratch.put(sc)
	sc.one = bd.probeAddrs(sc, x, sc.one[:0])
	flat, err := tryReadPolicy(bd.reg.m, &sc.buf, op, bd.retry, sc.one)
	if sat, ok := bd.lookupInBlocks(sc, x, flat, nil); ok {
		return sat, true, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("core: degraded lookup for key %d inconclusive: %w", x, err)
	}
	return nil, false, nil
}

// LookupTryBatch resolves many keys through the fault layer in one
// merged, de-duplicated read round governed by the retry policy — the
// fault-aware LookupBatch. Results align with keys; a key answers true
// whenever any surviving replica proves it present. The error is
// non-nil only when at least one key is inconclusive (its ok entry is
// then false and its sats entry nil — "unavailable", not "absent").
func (bd *BasicDict) LookupTryBatch(keys []pdm.Word) ([][]pdm.Word, []bool, error) {
	return bd.LookupTryBatchOp(nil, keys)
}

// LookupTryBatchOp is LookupTryBatch attributed to op.
func (bd *BasicDict) LookupTryBatchOp(op *pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool, error) {
	bd.mu.RLock()
	defer bd.mu.RUnlock()
	defer bd.reg.m.OpSpan(op, obs.TagLookup)()
	sc := bd.scratch.get()
	defer bd.scratch.put(sc)
	bd.mergeProbes(sc, keys)
	flat, err := tryReadPolicy(bd.reg.m, &sc.buf, op, bd.retry, sc.r1.addrs)
	sats, oks, inconclusive := bd.resolveMerged(sc, keys, flat)
	if inconclusive > 0 && err != nil {
		return sats, oks, fmt.Errorf("core: degraded batch lookup: %d of %d keys inconclusive: %w", inconclusive, len(keys), err)
	}
	return sats, oks, nil
}

// ContainsTry reports presence through the fault layer; see LookupTry.
func (bd *BasicDict) ContainsTry(x pdm.Word) (bool, error) {
	_, ok, err := bd.LookupTry(x)
	return ok, err
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
// cannot be read even after retries.
func (bd *BasicDict) Repair(disk int) error {
	if !bd.cfg.Replicate {
		return fmt.Errorf("core: Repair requires Replicate mode")
	}
	if bd.cfg.K < 2 {
		return fmt.Errorf("core: Repair needs K ≥ 2 replicas, have %d", bd.cfg.K)
	}
	if disk < 0 || disk >= bd.reg.nDisks {
		return fmt.Errorf("core: Repair disk %d out of [0,%d)", disk, bd.reg.nDisks)
	}
	bd.mu.Lock()
	defer bd.mu.Unlock()
	defer bd.reg.m.Span(obs.TagRepair)()
	d := bd.reg.nDisks
	ss := bd.striped.StripeSize()

	// Sweep the surviving stripes row by row, collecting every record
	// whose stripe mask says it also lived on the repaired disk.
	rows := make([][]bucket.Record, ss)
	seen := make([]map[pdm.Word]bool, ss)
	for r := 0; r < ss; r++ {
		var addrs []pdm.Addr
		for t := 0; t < d; t++ {
			if t == disk {
				continue
			}
			addrs = bd.bucketAddrs(t*ss+r, addrs)
		}
		blocks, err := tryReadPolicy(bd.reg.m, new(pdm.ReadBuf), nil, bd.retry, addrs)
		if err != nil {
			return fmt.Errorf("core: Repair of disk %d: surviving stripe unreadable: %w", disk, err)
		}
		for _, blk := range blocks {
			for _, rec := range bd.codec.Decode(blk) {
				mask := uint64(rec.Sat[0]) >> 8
				if mask&(1<<uint(disk)) == 0 {
					continue
				}
				y := bd.neighbors(rec.Key, nil)[disk]
				tDisk, row := bd.bucketPos(y)
				if tDisk != disk {
					// The mask claims a replica on a stripe the graph does
					// not map this key to — a damaged record slipped past
					// the checksum. Skip it rather than corrupt the stripe.
					continue
				}
				if seen[row] == nil {
					seen[row] = make(map[pdm.Word]bool)
				}
				if seen[row][rec.Key] {
					continue // another survivor already contributed this key
				}
				seen[row][rec.Key] = true
				sat := make([]pdm.Word, 1+bd.fragWords)
				sat[0] = replicaTag(replicaRank(mask, disk), mask)
				copy(sat[1:], rec.Sat[1:])
				rows[row] = append(rows[row], bucket.Record{Key: rec.Key, Sat: sat})
			}
		}
	}

	// Rewrite the whole stripe — reconstructed buckets and empty ones
	// alike, so stale blocks from before the failure cannot survive.
	for r := 0; r < ss; r++ {
		blocks := bd.encodeCanonical(rows[r], bd.cfg.BucketBlocks)
		addrs := bd.bucketAddrs(disk*ss+r, nil)
		writes := make([]pdm.BlockWrite, len(addrs))
		for i, a := range addrs {
			writes[i] = pdm.BlockWrite{Addr: a, Data: blocks[i]}
		}
		if err := tryWritePolicy(bd.reg.m, nil, bd.retry, writes); err != nil {
			return fmt.Errorf("core: Repair of disk %d: rewriting bucket %d: %w", disk, disk*ss+r, err)
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
	defer bd.reg.m.Span(obs.TagScrub)()
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
		_, err := tryReadPolicy(bd.reg.m, new(pdm.ReadBuf), nil, bd.retry, addrs)
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

// LookupTry is the one-probe structure's degraded lookup: the single
// probe batch goes through the fault layer with transient retries.
// Membership (K = 1) and retrieval fields are not replicated, so a
// fail-stopped disk in the group a key needs makes that key unavailable
// (reported as an error, never as a wrong answer); transient faults and
// stalls are absorbed.
func (op *OneProbeDict) LookupTry(x pdm.Word) ([]pdm.Word, bool, error) {
	return op.LookupTryOp(nil, x)
}

// LookupTryOp is LookupTry attributed to the operation token tok and
// governed by the structure's retry policy.
func (op *OneProbeDict) LookupTryOp(tok *pdm.Op, x pdm.Word) ([]pdm.Word, bool, error) {
	op.mu.RLock()
	defer op.mu.RUnlock()
	defer op.m.OpSpan(tok, obs.TagLookup)()
	sc := op.scratch.get()
	defer op.scratch.put(sc)
	sc.one = op.probeAddrsAllLocked(sc, x, sc.one[:0])
	membLen := op.memb.probeLen()
	flat, err := tryReadPolicy(op.m, &sc.buf, tok, op.retry, sc.one)
	membSat, ok := op.memb.lookupInBlocks(sc, x, flat[:membLen], sc.memb[:0])
	if !ok {
		if err != nil {
			return nil, false, fmt.Errorf("core: degraded lookup for key %d inconclusive: %w", x, err)
		}
		return nil, false, nil
	}
	level := int(membSat[0] >> 8)
	if level >= len(op.levels) {
		return nil, false, nil
	}
	blocks := flat[membLen+level*op.d : membLen+(level+1)*op.d]
	for _, blk := range blocks {
		if blk == nil {
			return nil, false, fmt.Errorf("core: degraded lookup for key %d: level %d fields unavailable: %w", x, level, err)
		}
	}
	head := int(membSat[0] & 0xFF)
	sat, found := decodeChain(op.fieldBits, op.cfg.SatWords, op.fieldsOfLocked(sc, level, x, blocks), head)
	return sat, found, nil
}
