package core

import (
	"fmt"
	"sync"

	"pdmdict/internal/expander"
	"pdmdict/internal/obs"
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

// probe reads, in ONE parallel I/O, the membership neighborhood and
// every level's field blocks for x. The returned slices alias the batch
// result: memb blocks first, then d blocks per level.
func (op *OneProbeDict) probeLocked(sc *probeScratch, tok *pdm.Op, x pdm.Word) (membBlocks [][]pdm.Word, levelBlocks [][][]pdm.Word) {
	sc.one = op.probeAddrsAllLocked(sc, x, sc.one[:0])
	flat := op.m.BatchReadOp(tok, sc.one)
	membLen := op.memb.probeLen()
	membBlocks = flat[:membLen]
	levelBlocks = make([][][]pdm.Word, len(op.levels))
	for li := range op.levels {
		levelBlocks[li] = flat[membLen+li*op.d : membLen+(li+1)*op.d]
	}
	return membBlocks, levelBlocks
}

// lookupInFlat resolves x against a pre-fetched probe (the blocks for
// probeAddrsAll(x), in order), without any I/O.
func (op *OneProbeDict) lookupInFlatLocked(sc *probeScratch, x pdm.Word, flat [][]pdm.Word) ([]pdm.Word, bool) {
	membLen := op.memb.probeLen()
	membSat, ok := op.memb.lookupInBlocks(sc, x, flat[:membLen], sc.memb[:0])
	if !ok {
		return nil, false
	}
	head := int(membSat[0] & 0xFF)
	level := int(membSat[0] >> 8)
	if level >= len(op.levels) {
		return nil, false
	}
	blocks := flat[membLen+level*op.d : membLen+(level+1)*op.d]
	return decodeChain(op.fieldBits, op.cfg.SatWords, op.fieldsOfLocked(sc, level, x, blocks), head)
}

// LookupBatch resolves many keys with ONE batched read: every key's
// probe addresses (membership and all levels) are collected,
// de-duplicated, and fetched together, so a batch of b lookups costs
// the deepest per-disk queue of distinct blocks — still one parallel
// I/O round — instead of b sequential probes. Results are positionally
// aligned with keys.
func (op *OneProbeDict) LookupBatch(keys []pdm.Word) ([][]pdm.Word, []bool) {
	return op.LookupBatchOp(nil, keys)
}

// LookupBatchOp is LookupBatch attributed to the operation token tok:
// the probe batch and the lookup span carry the token's ID and the
// token is charged the batch's exact cost. A nil token keeps the
// legacy shared-stack attribution.
func (op *OneProbeDict) LookupBatchOp(tok *pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool) {
	op.mu.RLock()
	defer op.mu.RUnlock()
	defer op.m.OpSpan(tok, obs.TagLookup)()
	sc := op.scratch.get()
	defer op.scratch.put(sc)
	return op.lookupMergedLocked(sc, tok, nil, keys)
}

// lookupMergedLocked is the one merged probe round behind LookupBatchOp
// (attributed to tok) and LookupSharedOp (attributed to every token of
// shared, which owns keys position by position).
func (op *OneProbeDict) lookupMergedLocked(sc *probeScratch, tok *pdm.Op, shared []*pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool) {
	sc.r1.reset()
	for _, x := range keys {
		sc.one = op.probeAddrsAllLocked(sc, x, sc.one[:0])
		sc.r1.add(sc.one)
	}
	flat := op.m.BatchReadInto(&sc.buf, tok, shared, sc.r1.addrs)
	sats := make([][]pdm.Word, len(keys))
	oks := make([]bool, len(keys))
	view := sc.keyView(op.probeWidthLocked())
	for ki, x := range keys {
		sc.r1.keyBlocks(ki, flat, view)
		sats[ki], oks[ki] = op.lookupInFlatLocked(sc, x, view)
	}
	return sats, oks
}

// fieldsOf extracts x's per-stripe fields at a level from its blocks,
// into the scratch's field table.
func (op *OneProbeDict) fieldsOfLocked(sc *probeScratch, li int, x pdm.Word, blocks [][]pdm.Word) [][]pdm.Word {
	lv := &op.levels[li]
	sc.fields = sc.fields[:0]
	for i := 0; i < op.d; i++ {
		j := lv.graph.StripeNeighbor(uint64(x), i)
		slot := (j % op.fieldsPerBlock) * op.fieldWords
		sc.fields = append(sc.fields, blocks[i][slot:slot+op.fieldWords])
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
	op.mu.RLock()
	defer op.mu.RUnlock()
	defer op.m.OpSpan(tok, obs.TagLookup)()
	sc := op.scratch.get()
	defer op.scratch.put(sc)
	sc.one = op.probeAddrsAllLocked(sc, x, sc.one[:0])
	return op.lookupInFlatLocked(sc, x, op.m.BatchReadInto(&sc.buf, tok, nil, sc.one))
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
	defer op.m.OpSpan(tok, obs.TagInsert)()
	sc := op.scratch.get()
	defer op.scratch.put(sc)
	membBlocks, levelBlocks := op.probeLocked(sc, tok, x)

	var writes []pdm.BlockWrite
	if membSat, present := op.memb.lookupInBlocks(sc, x, membBlocks, sc.memb[:0]); present {
		// Release the old chain in the in-hand blocks.
		writes = append(writes, op.releaseInBlocksLocked(sc, x, membSat, levelBlocks)...)
	} else if op.n >= op.cfg.Capacity {
		return ErrFull
	}

	for li := range op.levels {
		fields := op.fieldsOfLocked(sc, li, x, levelBlocks[li])
		free := make([]int, 0, op.d)
		for i, f := range fields {
			if !fieldUsed(f) {
				free = append(free, i)
			}
		}
		if len(free) < op.t {
			continue
		}
		free = free[:op.t]
		contents := encodeChain(op.fieldBits, op.fieldWords, free, sat)
		lv := &op.levels[li]
		for p, stripe := range free {
			j := lv.graph.StripeNeighbor(uint64(x), stripe)
			blk := levelBlocks[li][stripe]
			copy(blk[(j%op.fieldsPerBlock)*op.fieldWords:], contents[p])
			writes = append(writes, pdm.BlockWrite{
				Addr: lv.reg.addr(stripe, j/op.fieldsPerBlock),
				Data: blk,
			})
		}
		op.memb.mu.Lock()
		membWrites, err := op.memb.insertWritesLocked(sc, x, []pdm.Word{pdm.Word(free[0]) | pdm.Word(li)<<8}, membBlocks)
		op.memb.mu.Unlock()
		if err != nil {
			if len(writes) > 0 {
				op.m.BatchWriteOp(tok, dedupeWrites(writes))
			}
			return err
		}
		writes = append(writes, membWrites...)
		op.m.BatchWriteOp(tok, dedupeWrites(writes)) // the second (and last) parallel I/O
		lv.count++
		op.n++
		return nil
	}
	// The open problem's sting: no level fits. Leave the key consistently
	// absent; a caller-level rebuild is the (non-constant) recourse.
	op.memb.mu.Lock()
	membWrites, _ := op.memb.deleteWritesLocked(sc, x, membBlocks)
	op.memb.mu.Unlock()
	writes = append(writes, membWrites...)
	if len(writes) > 0 {
		op.m.BatchWriteOp(tok, dedupeWrites(writes))
	}
	return ErrFull
}

// releaseInBlocks clears x's chain using the pre-fetched level blocks
// (every level is in hand, so no extra I/O regardless of depth).
func (op *OneProbeDict) releaseInBlocksLocked(sc *probeScratch, x pdm.Word, membSat []pdm.Word, levelBlocks [][][]pdm.Word) []pdm.BlockWrite {
	head := int(membSat[0] & 0xFF)
	level := int(membSat[0] >> 8)
	if level >= len(op.levels) {
		return nil
	}
	lv := &op.levels[level]
	fields := op.fieldsOfLocked(sc, level, x, levelBlocks[level])
	var writes []pdm.BlockWrite
	cur := head
	for cur >= 0 && cur < op.d && fieldUsed(fields[cur]) {
		diff := chainDiff(fields[cur], op.fieldBits)
		for i := range fields[cur] {
			fields[cur][i] = 0
		}
		j := lv.graph.StripeNeighbor(uint64(x), cur)
		writes = append(writes, pdm.BlockWrite{
			Addr: lv.reg.addr(cur, j/op.fieldsPerBlock),
			Data: levelBlocks[level][cur],
		})
		if diff == 0 {
			break
		}
		cur += diff
	}
	lv.count--
	op.n--
	return dedupeWrites(writes)
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
	defer op.m.OpSpan(tok, obs.TagDelete)()
	sc := op.scratch.get()
	defer op.scratch.put(sc)
	membBlocks, levelBlocks := op.probeLocked(sc, tok, x)
	membSat, ok := op.memb.lookupInBlocks(sc, x, membBlocks, sc.memb[:0])
	if !ok {
		return false
	}
	writes := op.releaseInBlocksLocked(sc, x, membSat, levelBlocks)
	op.memb.mu.Lock()
	membWrites, _ := op.memb.deleteWritesLocked(sc, x, membBlocks)
	op.memb.mu.Unlock()
	writes = append(writes, membWrites...)
	if len(writes) > 0 {
		op.m.BatchWriteOp(tok, dedupeWrites(writes))
	}
	return true
}
