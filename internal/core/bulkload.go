package core

import (
	"fmt"

	"pdmdict/internal/bucket"
	"pdmdict/internal/extsort"
	"pdmdict/internal/pdm"
)

// BulkLoad fills an empty dictionary with the given records at
// sort-like I/O cost, instead of 2 parallel I/Os per key.
//
// The greedy placement rule of Section 3 is inherently sequential, but
// its decisions depend only on the bucket load counters — o(n) words of
// internal memory (v = O(n/B) buckets), comfortably inside the model's
// internal-memory budget. So the bulk path decides placements in
// memory, writes the assignment list to scratch stripes, sorts it by
// bucket with the external mergesort, and then writes each bucket block
// exactly once, in block-row batches of one parallel I/O each. This is
// what makes the Theorem 6(a) membership sub-dictionary constructible
// within the "proportional to sorting" budget.
//
// The dictionary must be empty; the records' keys must be distinct. The
// scratch region is stripes [scratchBlock0, scratchBlock0 + 2·SortStripes)
// of the assignment vector, on every disk of the machine. BulkLoad
// releases it before it returns, on error paths too (see
// pdm.Machine.ReleaseStripes), so afterwards the machine holds only the
// dictionary, and compacts the machine (pdm.Machine.Compact), so each
// block holds only its used words in host memory.
func (bd *BasicDict) BulkLoad(recs []bucket.Record, scratchBlock0, memStripes int) error {
	bd.mu.Lock()
	defer bd.mu.Unlock()
	if bd.n > 0 {
		return fmt.Errorf("core: BulkLoad on a non-empty dictionary (%d keys)", bd.n)
	}
	if len(recs) > bd.cfg.Capacity {
		return ErrFull
	}
	if memStripes < 3 {
		return fmt.Errorf("core: memStripes %d below 3", memStripes)
	}
	seen := make(map[pdm.Word]struct{}, len(recs))
	for _, r := range recs {
		if len(r.Sat) != bd.cfg.SatWords {
			return fmt.Errorf("core: record with %d satellite words, config says %d", len(r.Sat), bd.cfg.SatWords)
		}
		if uint64(r.Key) >= bd.cfg.Universe {
			return fmt.Errorf("core: key %d outside universe %d", r.Key, bd.cfg.Universe)
		}
		if _, dup := seen[r.Key]; dup {
			return fmt.Errorf("%w: key %d", ErrDuplicateKey, r.Key)
		}
		seen[r.Key] = struct{}{}
	}
	if len(recs) == 0 {
		return nil
	}
	defer bd.reg.m.Span(pdm.TagBulkload).End()

	// The dictionary's own region may span only a subset of the
	// machine's disks; scratch stripes span them all, which is fine —
	// scratch is scratch.
	m := bd.reg.m
	loads := make([]int, bd.buckets)

	// Pass 1: greedy placement, streaming assignment records
	// [sortKey, key, fragIdx, frag...] to scratch. sortKey orders by
	// (bucket index within stripe, stripe) so the fill pass emits whole
	// block rows.
	asgWidth := 3 + bd.fragWords
	app := extsort.NewAppender(m, scratchBlock0, asgWidth)
	defer func() {
		appended := extsort.Vec{M: m, Start: scratchBlock0, RecWords: asgWidth, N: app.Len()}
		m.ReleaseStripes(scratchBlock0, scratchBlock0+2*appended.SortStripes(memStripes))
		m.Compact()
	}()
	out := make([]pdm.Word, asgWidth)
	nDisks := bd.reg.nDisks
	var ns, view, chosen []int
	for _, r := range recs {
		// The greedy rule of insertWritesLocked, on the in-memory loads.
		ns = bd.neighbors(r.Key, ns[:0])
		view = view[:0]
		for _, y := range ns {
			view = append(view, loads[y])
		}
		var ok bool
		if chosen, ok = bd.choose(chosen[:0], view); !ok {
			return ErrFull
		}
		mask := bd.replicaMask(chosen)
		for j, i := range chosen {
			loads[ns[i]]++
			disk, brow := bd.bucketPos(ns[i])
			out[0] = pdm.Word(brow*nDisks + disk)
			out[1] = r.Key
			bd.choiceRecord(out[2:], r.Sat, j, i, mask)
			app.Append(out)
		}
	}
	asg := app.Vec()

	// Pass 2: sort by bucket.
	extsort.Sort(asg, scratchBlock0+asg.SortStripes(memStripes), memStripes, extsort.ByWord(0))

	// Pass 3: pack and write each bucket once, one parallel I/O per
	// block row (the buckets of one row live on distinct disks). Every
	// row reuses the per-disk bucket buffers and the write list.
	curRow := -1
	blocks := make([][][]pdm.Word, nDisks) // disk → its bucket's blocks
	for disk := range blocks {
		blocks[disk] = make([][]pdm.Word, bd.cfg.BucketBlocks)
		for b := range blocks[disk] {
			blocks[disk][b] = make([]pdm.Word, bd.codec.B)
		}
	}
	inRow := make([]bool, nDisks) // the disk's bucket is in the current row
	writes := make([]pdm.BlockWrite, 0, nDisks*bd.cfg.BucketBlocks)
	sc := bd.scratch.get()
	defer bd.scratch.put(sc)
	flush := func() {
		writes = writes[:0]
		for disk, blks := range blocks {
			if !inRow[disk] {
				continue
			}
			base := curRow * bd.cfg.BucketBlocks
			if bd.cfg.Replicate {
				// The canonical sorted layout every replicate-mode write
				// keeps (see collectWrites), so Repair stays bit-identical.
				bd.canonicalize(sc, blks)
			}
			for b, blk := range blks {
				writes = append(writes, pdm.BlockWrite{Addr: bd.reg.addr(disk, base+b), Data: blk})
			}
			inRow[disk] = false
		}
		if len(writes) > 0 {
			m.BatchWrite(writes)
		}
	}
	extsort.Scan(asg, func(_ int, rec []pdm.Word) {
		sortKey := int(rec[0])
		brow, disk := sortKey/nDisks, sortKey%nDisks
		if brow != curRow {
			flush()
			curRow = brow
		}
		blks := blocks[disk]
		if !inRow[disk] {
			for _, blk := range blks {
				clear(blk)
			}
			inRow[disk] = true
		}
		placed := false
		for _, blk := range blks {
			if bd.codec.AppendAlways(blk, bucket.Record{Key: rec[1], Sat: rec[2:]}) {
				placed = true
				break
			}
		}
		if !placed {
			panic("core: BulkLoad load accounting disagrees with block capacity")
		}
	})
	flush()
	bd.n = len(recs)
	return nil
}
