package core

import (
	"fmt"
	"slices"
	"sync"

	"pdmdict/internal/expander"
	"pdmdict/internal/pdm"
)

// OneProbeDict explores the paper's Open Problems section (Section 6):
// "It is plausible that full bandwidth can be achieved with lookup in 1
// I/O, while still supporting efficient updates. One idea that we have
// considered is to apply the load balancing scheme … recursively, for
// some constant number of levels …".
//
// This implementation realizes the level recursion with the
// disk-multiplication trick the paper uses elsewhere ("we can make any
// constant number of parallel instances … the number of disks increase
// by a constant factor"): each of the c levels of the §4.3 cascade gets
// its own group of d disks, alongside the membership group — (c+1)·d
// disks total. Because all level groups are disjoint, ONE parallel I/O
// fetches the membership buckets AND every level's neighborhood of x:
//
//   - Lookup: exactly 1 parallel I/O, always (the membership record
//     says which level's pre-fetched fields to decode).
//   - Insert/Delete: exactly 2 parallel I/Os (the same read batch plus
//     one write batch) — the old chain, wherever it lives, is already
//     in hand.
//
// The satellite budget is Θ(B·D) for D = (c+1)·d total disks (a
// (1/(c+1)) fraction of the raw stripe, i.e. full bandwidth up to the
// constant the disk multiplication costs). What remains non-constant —
// and why Section 6 is still open — is the failure mode: when no level
// offers t free fields the structure must be rebuilt (ErrFull here);
// the paper's remark "this makes the time for updates non-constant"
// shows up exactly there.
type OneProbeDict struct {
	mu     sync.RWMutex // lookups shared, updates exclusive
	m      *pdm.Machine
	cfg    OneProbeConfig
	d      int
	t      int
	memb   *BasicDict
	levels []opLevel // guarded by mu

	fieldWords     int
	fieldBits      int
	fieldsPerBlock int
	n              int // guarded by mu
	scratch        scratchPool

	retry pdm.RetryPolicy // guarded by mu; degraded-read recovery policy (zero = default)
}

// SetRetryPolicy installs the policy LookupTry uses for transient-error
// recovery. The zero value restores the default (three immediate
// retries, no backoff, no hedging).
func (op *OneProbeDict) SetRetryPolicy(p pdm.RetryPolicy) {
	op.mu.Lock()
	op.retry = p
	op.mu.Unlock()
}

// opLevel is one retrieval array on its own disk group.
type opLevel struct {
	graph *expander.Family
	reg   region
	count int
}

// OneProbeConfig parameterizes the structure.
type OneProbeConfig struct {
	// Capacity is N, fixed at creation. Required.
	Capacity int
	// SatWords is the satellite size per key, in words.
	SatWords int
	// Levels is the recursion depth c; 0 defaults to 3.
	Levels int
	// Slack sizes level 1 at Slack·N·d fields; 0 defaults to 6.
	Slack float64
	// Ratio shrinks consecutive levels; 0 defaults to 1/4.
	Ratio float64
	// Universe is u; 0 defaults to 2^63.
	Universe uint64
	// Seed selects the expanders.
	Seed uint64
}

func (c *OneProbeConfig) normalize() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("core: OneProbeConfig.Capacity = %d, must be positive", c.Capacity)
	}
	if c.SatWords < 0 {
		return fmt.Errorf("core: negative SatWords")
	}
	if c.Levels == 0 {
		c.Levels = 3
	}
	if c.Levels < 1 {
		return fmt.Errorf("core: Levels %d below 1", c.Levels)
	}
	if c.Slack == 0 {
		c.Slack = 6
	}
	// Negated comparisons reject NaN from corrupt snapshot float fields.
	if !(c.Slack >= 1 && c.Slack <= maxConfigSlack) {
		return fmt.Errorf("core: Slack %v outside [1, %d]", c.Slack, maxConfigSlack)
	}
	if c.Ratio == 0 {
		c.Ratio = 0.25
	}
	if !(c.Ratio > 0 && c.Ratio < 1) {
		return fmt.Errorf("core: Ratio %v outside (0,1)", c.Ratio)
	}
	if c.Universe == 0 {
		c.Universe = 1 << 63
	}
	return nil
}

// NewOneProbe creates an empty structure. The machine's disk count must
// be divisible by Levels+1; the expander degree is D/(Levels+1).
func NewOneProbe(m *pdm.Machine, cfg OneProbeConfig) (*OneProbeDict, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	groups := cfg.Levels + 1
	if m.D()%groups != 0 {
		return nil, fmt.Errorf("core: OneProbe needs D divisible by levels+1 = %d, got D=%d", groups, m.D())
	}
	d := m.D() / groups
	if d < 3 {
		return nil, fmt.Errorf("core: degree %d too small (need d ≥ 3)", d)
	}
	if d > 255 {
		return nil, fmt.Errorf("core: degree %d exceeds the packed head-pointer range (255)", d)
	}
	t := ceilDiv(2*d, 3)

	op := &OneProbeDict{m: m, cfg: cfg, d: d, t: t}
	op.fieldBits = chainFieldBits(64*cfg.SatWords, t, d)
	op.fieldWords = ceilDiv(op.fieldBits, 64)
	if op.fieldWords == 0 {
		op.fieldWords = 1
	}
	op.fieldBits = 64 * op.fieldWords
	if op.fieldWords > m.B() {
		return nil, fmt.Errorf("core: field of %d words exceeds block size %d", op.fieldWords, m.B())
	}
	op.fieldsPerBlock = m.B() / op.fieldWords

	perStripe := cfg.Slack * float64(cfg.Capacity)
	for li := 0; li < cfg.Levels; li++ {
		sf := ceilDiv(int(perStripe), op.fieldsPerBlock) * op.fieldsPerBlock
		if sf < op.fieldsPerBlock {
			sf = op.fieldsPerBlock
		}
		op.levels = append(op.levels, opLevel{
			graph: expander.NewFamily(cfg.Universe, d, sf, cfg.Seed+uint64(li)+1),
			reg:   region{m: m, disk0: (li + 1) * d, nDisks: d},
		})
		perStripe *= cfg.Ratio
	}

	memb, err := newBasicAt(region{m: m, disk0: 0, nDisks: d}, BasicConfig{
		Capacity: cfg.Capacity,
		SatWords: 1, // head | level<<8
		Universe: cfg.Universe,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	op.memb = memb
	return op, nil
}

// Len returns the number of keys stored.
func (op *OneProbeDict) Len() int {
	op.mu.RLock()
	defer op.mu.RUnlock()
	return op.n
}

// Capacity returns N.
func (op *OneProbeDict) Capacity() int { return op.cfg.Capacity }

// Levels returns the recursion depth c.
func (op *OneProbeDict) Levels() int {
	op.mu.RLock()
	defer op.mu.RUnlock()
	return len(op.levels)
}

// LevelCounts returns per-level occupancy.
func (op *OneProbeDict) LevelCounts() []int {
	op.mu.RLock()
	defer op.mu.RUnlock()
	out := make([]int, len(op.levels))
	for i, lv := range op.levels {
		out[i] = lv.count
	}
	return out
}

// BlocksPerDisk returns the per-disk space footprint (maximum over the
// groups; groups are disjoint disks).
func (op *OneProbeDict) BlocksPerDisk() int {
	op.mu.RLock()
	defer op.mu.RUnlock()
	b := op.memb.BlocksPerDisk()
	for _, lv := range op.levels {
		if blocks := lv.graph.StripeSize() / op.fieldsPerBlock; blocks > b {
			b = blocks
		}
	}
	return b
}

// probeAddrsAll appends the full 1-I/O probe address list for x: the
// membership neighborhood first, then d field blocks per level.
func (op *OneProbeDict) probeAddrsAllLocked(sc *probeScratch, x pdm.Word, dst []pdm.Addr) []pdm.Addr {
	dst = op.memb.probeAddrs(sc, x, dst)
	for li := range op.levels {
		lv := &op.levels[li]
		for i := 0; i < op.d; i++ {
			j := lv.graph.StripeNeighbor(uint64(x), i)
			dst = append(dst, lv.reg.addr(i, j/op.fieldsPerBlock))
		}
	}
	return dst
}

// probeWidth is the number of blocks probeAddrsAll contributes per key.
func (op *OneProbeDict) probeWidthLocked() int { return op.memb.probeLen() + len(op.levels)*op.d }

// probeLocked reads, in ONE parallel I/O into the scratch's buffer, the
// membership neighborhood and every level's field blocks for x: memb
// blocks first, then d blocks per level (see levelBlocks).
func (op *OneProbeDict) probeLocked(sc *probeScratch, tok *pdm.Op, x pdm.Word) [][]pdm.Word {
	sc.one = op.probeAddrsAllLocked(sc, x, sc.one[:0])
	return op.m.BatchReadInto(&sc.buf, tok, nil, sc.one)
}

// levelBlocks returns level li's d field blocks out of a probe's flat
// block list.
func (op *OneProbeDict) levelBlocks(flat [][]pdm.Word, li int) [][]pdm.Word {
	lo := op.memb.probeLen() + li*op.d
	return flat[lo : lo+op.d]
}

// lookupInFlat resolves x against a pre-fetched probe (the blocks for
// probeAddrsAll(x), in order), without any I/O. inconclusive reports a
// miss the surviving blocks cannot settle: x absent from a membership
// neighborhood with a block missing from the probe, or x's fields
// unreadable at its level. Fault-oblivious reads never miss a block.
func (op *OneProbeDict) lookupInFlatLocked(sc *probeScratch, x pdm.Word, flat [][]pdm.Word) (sat []pdm.Word, ok, inconclusive bool) {
	membLen := op.memb.probeLen()
	membSat, ok := op.memb.lookupInBlocks(sc, x, flat[:membLen], sc.memb[:0])
	if !ok {
		return nil, false, hasNil(flat)
	}
	head := int(membSat[0] & 0xFF)
	level := int(membSat[0] >> 8)
	if level >= len(op.levels) {
		return nil, false, false
	}
	blocks := op.levelBlocks(flat, level)
	if hasNil(blocks) {
		return nil, false, true
	}
	sat, ok = decodeChain(op.fieldBits, op.cfg.SatWords, op.fieldsOfLocked(sc, level, x, blocks), head)
	return sat, ok, false
}

// LookupBatch resolves many keys with ONE batched read: every key's
// probe addresses (membership and all levels) are collected,
// de-duplicated, and fetched together, so a batch of b lookups costs
// the deepest per-disk queue of distinct blocks — still one parallel
// I/O round — instead of b sequential probes. Results are positionally
// aligned with keys.
func (op *OneProbeDict) LookupBatch(keys []pdm.Word) ([][]pdm.Word, []bool) {
	sats, oks := make([][]pdm.Word, len(keys)), make([]bool, len(keys))
	op.LookupBatchInto(nil, nil, keys, sats, oks)
	return sats, oks
}

// LookupBatchInto is LookupBatch into caller-owned results, attributed
// as BasicDict.LookupBatchInto describes; a shared round is one
// parallel I/O too.
func (op *OneProbeDict) LookupBatchInto(tok *pdm.Op, shared []*pdm.Op, keys []pdm.Word, sats [][]pdm.Word, oks []bool) {
	op.lookup(tok, shared, keys, sats, oks, false)
}

// lookup is the structure's one lookup body: ONE merged probe round over
// every key's membership and field blocks, answering into sats and oks.
// A single key is the batch of one. try is as for BasicDict.lookup.
func (op *OneProbeDict) lookup(tok *pdm.Op, shared []*pdm.Op, keys []pdm.Word, sats [][]pdm.Word, oks []bool, try bool) (inconclusive int, err error) {
	op.mu.RLock()
	defer op.mu.RUnlock()
	sc := op.scratch.get()
	defer op.scratch.put(sc)
	sc.openSpans(op.m, pdm.TagLookup, tok, shared)
	defer sc.closeSpans()
	sc.r1.reset()
	for _, x := range keys {
		sc.one = op.probeAddrsAllLocked(sc, x, sc.one[:0])
		sc.r1.add(sc.one)
	}
	var flat [][]pdm.Word
	if try {
		flat, err = tryReadPolicy(op.m, &sc.retries, &sc.buf, tok, op.retry, sc.r1.addrs)
	} else {
		flat = op.m.BatchReadInto(&sc.buf, tok, shared, sc.r1.addrs)
	}
	view := sc.keyView(op.probeWidthLocked())
	for ki, x := range keys {
		sc.r1.keyBlocks(ki, flat, view)
		var unsettled bool
		if sats[ki], oks[ki], unsettled = op.lookupInFlatLocked(sc, x, view); unsettled {
			inconclusive++
		}
	}
	return inconclusive, inconclusiveError(inconclusive, err)
}

// fieldsOf extracts x's per-stripe fields at a level from its blocks,
// into the scratch's field table.
func (op *OneProbeDict) fieldsOfLocked(sc *probeScratch, li int, x pdm.Word, blocks [][]pdm.Word) [][]pdm.Word {
	lv := &op.levels[li]
	sc.fields = sc.fields[:0]
	for i := 0; i < op.d; i++ {
		j := lv.graph.StripeNeighbor(uint64(x), i)
		slot := (j % op.fieldsPerBlock) * op.fieldWords
		sc.fields = append(sc.fields, blocks[i][slot:slot+op.fieldWords:slot+op.fieldWords])
	}
	return sc.fields
}

// Lookup returns a copy of x's satellite and whether x is present, in
// exactly one parallel I/O — present, absent, shallow or deep.
func (op *OneProbeDict) Lookup(x pdm.Word) ([]pdm.Word, bool) {
	return op.LookupOp(nil, x)
}

// LookupOp is Lookup attributed to the operation token tok.
func (op *OneProbeDict) LookupOp(tok *pdm.Op, x pdm.Word) ([]pdm.Word, bool) {
	var sat [1][]pdm.Word
	var ok [1]bool
	op.lookup(tok, nil, []pdm.Word{x}, sat[:], ok[:], false)
	return sat[0], ok[0]
}

// Contains reports presence at the 1-I/O Lookup cost.
func (op *OneProbeDict) Contains(x pdm.Word) bool {
	_, ok := op.Lookup(x)
	return ok
}

// Insert stores (x, sat) in exactly two parallel I/Os (the probe batch
// plus one write batch), replacing any existing satellite.
func (op *OneProbeDict) Insert(x pdm.Word, sat []pdm.Word) error {
	return op.InsertOp(nil, x, sat)
}

// InsertOp is Insert attributed to the operation token tok.
func (op *OneProbeDict) InsertOp(tok *pdm.Op, x pdm.Word, sat []pdm.Word) error {
	if len(sat) != op.cfg.SatWords {
		return fmt.Errorf("core: satellite of %d words, config says %d", len(sat), op.cfg.SatWords)
	}
	if uint64(x) >= op.cfg.Universe {
		return fmt.Errorf("core: key %d outside universe %d", x, op.cfg.Universe)
	}
	op.mu.Lock()
	defer op.mu.Unlock()
	defer op.m.OpSpan(tok, pdm.TagInsert)()
	sc := op.scratch.get()
	defer op.scratch.put(sc)
	flat := op.probeLocked(sc, tok, x)
	membBlocks := flat[:op.memb.probeLen()]

	writes := sc.writes[:0]
	if membSat, present := op.memb.lookupInBlocks(sc, x, membBlocks, sc.memb[:0]); present {
		// Release the old chain in the in-hand blocks.
		writes = op.releaseInBlocksLocked(sc, x, membSat, flat, writes)
	} else if op.n >= op.cfg.Capacity {
		return ErrFull
	}

	for li := range op.levels {
		blocks := op.levelBlocks(flat, li)
		fields := op.fieldsOfLocked(sc, li, x, blocks)
		sc.free = freeFields(fields, sc.free[:0])
		if len(sc.free) < op.t {
			continue
		}
		free := sc.free[:op.t]
		lv := &op.levels[li]
		mark := len(writes)
		for _, stripe := range free {
			j := lv.graph.StripeNeighbor(uint64(x), stripe)
			writes = append(writes, pdm.BlockWrite{
				Addr: lv.reg.addr(stripe, j/op.fieldsPerBlock),
				Data: blocks[stripe],
			})
		}
		// As in DynamicDict: the chain is encoded only once the
		// membership entry is placed.
		sc.memb[0] = pdm.Word(free[0]) | pdm.Word(li)<<8
		var err error
		op.memb.mu.Lock()
		writes, err = op.memb.insertWritesLocked(sc, x, sc.memb[:], membBlocks, writes)
		op.memb.mu.Unlock()
		if err != nil {
			sc.flush(op.m, tok, slices.Delete(writes, mark, mark+len(free)))
			return err
		}
		encodeChain(op.fieldBits, free, sat, fields)
		sc.flush(op.m, tok, writes) // the second (and last) parallel I/O
		lv.count++
		op.n++
		return nil
	}
	// The open problem's sting: no level fits. Leave the key consistently
	// absent; a caller-level rebuild is the (non-constant) recourse.
	op.memb.mu.Lock()
	writes, _ = op.memb.deleteWritesLocked(sc, x, membBlocks, writes)
	op.memb.mu.Unlock()
	sc.flush(op.m, tok, writes)
	return ErrFull
}

// releaseInBlocks clears x's chain using the pre-fetched probe (every
// level is in hand, so no extra I/O regardless of depth) and appends the
// block writes to writes.
func (op *OneProbeDict) releaseInBlocksLocked(sc *probeScratch, x pdm.Word, membSat []pdm.Word, flat [][]pdm.Word, writes []pdm.BlockWrite) []pdm.BlockWrite {
	head := int(membSat[0] & 0xFF)
	level := int(membSat[0] >> 8)
	if level >= len(op.levels) {
		return writes
	}
	lv := &op.levels[level]
	blocks := op.levelBlocks(flat, level)
	fields := op.fieldsOfLocked(sc, level, x, blocks)
	cur := head
	for cur >= 0 && cur < op.d && fieldUsed(fields[cur]) {
		diff := chainDiff(fields[cur], op.fieldBits)
		clear(fields[cur])
		j := lv.graph.StripeNeighbor(uint64(x), cur)
		writes = append(writes, pdm.BlockWrite{
			Addr: lv.reg.addr(cur, j/op.fieldsPerBlock),
			Data: blocks[cur],
		})
		if diff == 0 {
			break
		}
		cur += diff
	}
	lv.count--
	op.n--
	return writes
}

// Delete removes x in exactly two parallel I/Os, reporting whether it
// was present.
func (op *OneProbeDict) Delete(x pdm.Word) bool {
	return op.DeleteOp(nil, x)
}

// DeleteOp is Delete attributed to the operation token tok.
func (op *OneProbeDict) DeleteOp(tok *pdm.Op, x pdm.Word) bool {
	op.mu.Lock()
	defer op.mu.Unlock()
	defer op.m.OpSpan(tok, pdm.TagDelete)()
	sc := op.scratch.get()
	defer op.scratch.put(sc)
	flat := op.probeLocked(sc, tok, x)
	membBlocks := flat[:op.memb.probeLen()]
	membSat, ok := op.memb.lookupInBlocks(sc, x, membBlocks, sc.memb[:0])
	if !ok {
		return false
	}
	writes := op.releaseInBlocksLocked(sc, x, membSat, flat, sc.writes[:0])
	op.memb.mu.Lock()
	writes, _ = op.memb.deleteWritesLocked(sc, x, membBlocks, writes)
	op.memb.mu.Unlock()
	sc.flush(op.m, tok, writes)
	return true
}
