package core

import (
	"fmt"

	"pdmdict/internal/bucket"
	"pdmdict/internal/pdm"
)

// Incremental repair. RepairJob is Repair broken into bounded chunks so
// a supervisor can interleave stripe reconstruction with live traffic:
// each Step call processes at most a handful of bucket rows under the
// dictionary's write lock and then releases it, letting queued lookups
// and updates through between chunks. The job survives transient
// failures (an errored chunk can simply be retried — the cursor only
// advances on success) and stays correct under concurrent updates: the
// dictionary feeds the job every record change that touches the stripe
// under reconstruction (noteUpdateLocked), so a collected snapshot can never
// resurrect a deleted key or clobber a fresh insert.
//
// Phases:
//
//	collect  sweep the surviving stripes row by row, gathering the
//	         records whose stripe mask includes the repaired disk
//	write    rewrite the repaired stripe row by row from the collected
//	         record sets, canonical encoding
//
// A row the write phase has already rewritten needs no further
// bookkeeping: updates write all replica buckets directly (the
// simulator's writes are fault-oblivious), so such a row is kept fresh
// by the very update that would have invalidated the snapshot.
type RepairJob struct {
	bd   *BasicDict
	disk int

	writing bool // false: collect phase; true: write phase
	cursor  int  // next row to process in the current phase
	done    bool

	rows [][]bucket.Record   // per-row record sets for the repaired stripe
	seen []map[pdm.Word]bool // per-row keys already accounted (survivor dedup + update tombstones)
}

// StartRepair begins an incremental rebuild of one disk's stripe and
// registers the job with the dictionary so concurrent updates keep it
// consistent. Requirements are Repair's (Replicate mode, K ≥ 2); only
// one job may be registered at a time. Updates must go through the
// locking API (InsertOp, DeleteOp, …) while a job is registered.
func (bd *BasicDict) StartRepair(disk int) (*RepairJob, error) {
	j, err := bd.newRepairJob(disk)
	if err != nil {
		return nil, err
	}
	bd.mu.Lock()
	defer bd.mu.Unlock()
	if bd.repairJob != nil {
		return nil, fmt.Errorf("core: a repair of disk %d is already in progress", bd.repairJob.disk)
	}
	bd.repairJob = j
	return j, nil
}

// newRepairJob checks that disk can be rebuilt from replicas and returns
// an unregistered job for it, in its collect phase.
func (bd *BasicDict) newRepairJob(disk int) (*RepairJob, error) {
	if !bd.cfg.Replicate {
		return nil, fmt.Errorf("core: repair requires Replicate mode")
	}
	if bd.cfg.K < 2 {
		return nil, fmt.Errorf("core: repair needs K ≥ 2 replicas, have %d", bd.cfg.K)
	}
	if disk < 0 || disk >= bd.reg.nDisks {
		return nil, fmt.Errorf("core: repair disk %d out of [0,%d)", disk, bd.reg.nDisks)
	}
	ss := bd.striped.StripeSize()
	return &RepairJob{
		bd:   bd,
		disk: disk,
		rows: make([][]bucket.Record, ss),
		seen: make([]map[pdm.Word]bool, ss),
	}, nil
}

// Disk returns the disk under repair.
func (j *RepairJob) Disk() int { return j.disk }

// Done reports whether the job has completed (successfully or via Close).
func (j *RepairJob) Done() bool {
	j.bd.mu.RLock()
	defer j.bd.mu.RUnlock()
	return j.done
}

// Close abandons the job and unregisters it. Safe to call after
// completion (then a no-op).
func (j *RepairJob) Close() {
	j.bd.mu.Lock()
	if j.bd.repairJob == j {
		j.bd.repairJob = nil
	}
	j.done = true
	j.bd.mu.Unlock()
}

// Step runs one bounded chunk of the repair — at most nRows bucket rows
// of the current phase — attributed to op, and reports whether the job
// is complete. On error the cursor is left on the failing row, so the
// caller may retry Step (resume) or Close the job. A completed job has
// unregistered itself; calling Step again returns (true, nil).
func (j *RepairJob) Step(op *pdm.Op, nRows int) (bool, error) {
	if nRows <= 0 {
		nRows = 1
	}
	bd := j.bd
	bd.mu.Lock()
	defer bd.mu.Unlock()
	if j.done {
		return true, nil
	}
	defer bd.reg.m.OpSpan(op, pdm.TagRepair).End()
	ss := bd.striped.StripeSize()
	processed := 0
	defer func() { bd.reg.m.NoteRepairChunk(processed) }()
	for processed < nRows {
		if !j.writing {
			if j.cursor >= ss {
				j.writing = true
				j.cursor = 0
				continue
			}
			if err := j.collectRowLocked(op, j.cursor); err != nil {
				return false, err
			}
			j.cursor++
			processed++
			continue
		}
		if j.cursor >= ss {
			break
		}
		if err := j.writeRowLocked(op, j.cursor); err != nil {
			return false, err
		}
		j.cursor++
		processed++
	}
	if j.writing && j.cursor >= ss {
		j.done = true
		if bd.repairJob == j {
			bd.repairJob = nil
		}
		return true, nil
	}
	return false, nil
}

// collectRowLocked sweeps row r of every surviving stripe, adding the records
// whose mask includes the repaired disk. Caller holds bd.mu.
func (j *RepairJob) collectRowLocked(op *pdm.Op, r int) error {
	bd := j.bd
	d := bd.reg.nDisks
	ss := bd.striped.StripeSize()
	var addrs []pdm.Addr
	for t := 0; t < d; t++ {
		if t == j.disk {
			continue
		}
		addrs = bd.bucketAddrs(t*ss+r, addrs)
	}
	blocks, err := tryReadPolicy(bd.reg.m, new(retryScratch), new(pdm.ReadBuf), op, bd.retry, addrs)
	if err != nil {
		return fmt.Errorf("core: Repair of disk %d: surviving stripe unreadable: %w", j.disk, err)
	}
	for _, blk := range blocks {
		for _, rec := range bd.codec.Decode(blk) {
			mask := uint64(rec.Sat[0]) >> 8
			if mask&(1<<uint(j.disk)) == 0 {
				continue
			}
			y := bd.neighbors(rec.Key, nil)[j.disk]
			tDisk, row := bd.bucketPos(y)
			if tDisk != j.disk {
				// Mask claims a replica on a stripe the graph does not map
				// this key to — damaged record; skip rather than corrupt.
				continue
			}
			if j.seen[row] == nil {
				j.seen[row] = make(map[pdm.Word]bool)
			}
			if j.seen[row][rec.Key] {
				continue // another survivor (or a live update) already decided this key
			}
			j.seen[row][rec.Key] = true
			sat := make([]pdm.Word, 1+bd.fragWords)
			sat[0] = replicaTag(replicaRank(mask, j.disk), mask)
			copy(sat[1:], rec.Sat[1:])
			j.rows[row] = append(j.rows[row], bucket.Record{Key: rec.Key, Sat: sat})
		}
	}
	return nil
}

// writeRowLocked rewrites row r of the repaired stripe from the collected
// record set (empty rows too: stale pre-failure blocks must not
// survive). Caller holds bd.mu.
func (j *RepairJob) writeRowLocked(op *pdm.Op, r int) error {
	bd := j.bd
	ss := bd.striped.StripeSize()
	blocks := bd.encodeCanonical(j.rows[r], bd.cfg.BucketBlocks)
	addrs := bd.bucketAddrs(j.disk*ss+r, nil)
	writes := make([]pdm.BlockWrite, len(addrs))
	for i, a := range addrs {
		writes[i] = pdm.BlockWrite{Addr: a, Data: blocks[i]}
	}
	if err := tryWritePolicy(bd.reg.m, op, bd.retry, writes); err != nil {
		return fmt.Errorf("core: Repair of disk %d: rewriting bucket %d: %w", j.disk, j.disk*ss+r, err)
	}
	return nil
}

// noteUpdateLocked feeds a registered repair job one record change: key x now
// has stripe mask mask (0 = removed) and satellite sat. Called from the
// update paths with bd.mu held, after the new placement is decided but
// regardless of whether the store writes have been issued yet — both
// orders are safe because the job's own sweeps run under the same lock.
//
// The hazards this closes are stale snapshots: a collected row written
// later must not resurrect a key deleted in between (delete hazard) nor
// overwrite a key inserted in between with its absence (insert hazard).
func (bd *BasicDict) noteUpdateLocked(x pdm.Word, sat []pdm.Word, mask uint64) {
	j := bd.repairJob
	if j == nil || !bd.cfg.Replicate {
		return
	}
	y := bd.neighbors(x, nil)[j.disk]
	tDisk, row := bd.bucketPos(y)
	if tDisk != j.disk {
		return
	}
	if j.writing && row < j.cursor {
		// Already rewritten; the caller's own (fault-oblivious) bucket
		// writes keep this row fresh from here on.
		return
	}
	// Tombstone: the survivor sweep must not re-add any copy of x — the
	// update is now the authority on x.
	if j.seen[row] == nil {
		j.seen[row] = make(map[pdm.Word]bool)
	}
	j.seen[row][x] = true
	// Drop any collected copy, then re-add under the new placement.
	recs := j.rows[row]
	for i := 0; i < len(recs); {
		if recs[i].Key == x {
			recs = append(recs[:i], recs[i+1:]...)
			continue
		}
		i++
	}
	if mask&(1<<uint(j.disk)) != 0 {
		full := make([]pdm.Word, 1+bd.fragWords)
		full[0] = replicaTag(replicaRank(mask, j.disk), mask)
		copy(full[1:], sat)
		recs = append(recs, bucket.Record{Key: x, Sat: full})
	}
	j.rows[row] = recs
}

// ScrubRange sweeps nRows bucket rows of one disk's stripe with
// verified reads, starting at row, and returns the bad addresses found,
// the next row to continue from, and whether the sweep reached the end
// of the stripe. Unlike Scrub it never clears the machine's degraded
// flag — that is the supervisor's call, made only after a full clean
// pass (pdm.Machine.MarkHealthy). Requires a striped layout.
func (bd *BasicDict) ScrubRange(op *pdm.Op, disk, row, nRows int) (bad []pdm.Addr, next int, done bool) {
	bd.mu.RLock()
	defer bd.mu.RUnlock()
	if bd.striped == nil {
		return nil, row, true // head-model layout has no per-disk stripes
	}
	defer bd.reg.m.OpSpan(op, pdm.TagScrub).End()
	ss := bd.striped.StripeSize()
	if nRows <= 0 {
		nRows = 1
	}
	r := row
	for ; r < ss && r < row+nRows; r++ {
		addrs := bd.bucketAddrs(disk*ss+r, nil)
		_, err := tryReadPolicy(bd.reg.m, new(retryScratch), new(pdm.ReadBuf), op, bd.retry, addrs)
		if err == nil {
			continue
		}
		if be, ok := pdm.AsBatchError(err); ok {
			for _, b := range be.Blocks {
				bad = append(bad, b.Addr)
			}
		} else {
			bad = append(bad, addrs...)
		}
	}
	bd.reg.m.NoteRepairChunk(r - row)
	return bad, r, r >= ss
}
