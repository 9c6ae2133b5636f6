package core

import (
	"fmt"
	"math"
	"sync"

	"pdmdict/internal/bitpack"
	"pdmdict/internal/expander"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// chainDiff peeks a chain field's next-stripe difference without
// decoding the data bits.
func chainDiff(field []pdm.Word, fieldBits int) int {
	r := bitpack.NewReader(field, fieldBits)
	r.ReadBits(1)
	return r.ReadUnary()
}

// DynamicConfig parameterizes the Section 4.3 / Theorem 7 dictionary.
type DynamicConfig struct {
	// Capacity is N, the maximum number of keys, fixed at initialization
	// as in the theorem ("a set whose size is not allowed to go beyond
	// N"). Required.
	Capacity int
	// SatWords is the satellite size per key, in words.
	SatWords int
	// Epsilon is the performance parameter ɛ of Theorem 7: successful
	// searches average at most 1+ɛ I/Os, updates at most 2+ɛ. 0 defaults
	// to 0.5. The theorem requires d > 6(1+1/ɛ).
	Epsilon float64
	// Ratio is the geometric shrink factor between consecutive retrieval
	// arrays (the paper's 6ε, constrained to be below 1/(1+1/ɛ)). 0
	// defaults to 0.9/(1+1/ɛ).
	Ratio float64
	// Slack sets the first array's size: v₁ = Slack·N·d fields. 0
	// defaults to 6 (the ε = 1/12 regime, as in StaticConfig).
	Slack float64
	// Universe is u; 0 defaults to 2^63.
	Universe uint64
	// Seed selects the expanders; array i uses Seed+i+1 and the
	// membership dictionary uses Seed.
	Seed uint64
}

func (c *DynamicConfig) normalize() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("core: DynamicConfig.Capacity = %d, must be positive", c.Capacity)
	}
	if c.SatWords < 0 {
		return fmt.Errorf("core: negative SatWords")
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.5
	}
	// Negated comparisons so NaN (possible in a corrupt snapshot's float
	// fields) is rejected rather than silently propagated into sizing.
	if !(c.Epsilon > 0 && c.Epsilon <= maxConfigSlack) {
		return fmt.Errorf("core: Epsilon %v outside (0, %d]", c.Epsilon, maxConfigSlack)
	}
	if c.Ratio == 0 {
		c.Ratio = 0.9 / (1 + 1/c.Epsilon)
	}
	if !(c.Ratio > 0 && c.Ratio < 1) {
		return fmt.Errorf("core: Ratio %v outside (0,1)", c.Ratio)
	}
	if c.Slack == 0 {
		c.Slack = 6
	}
	if !(c.Slack >= 1 && c.Slack <= maxConfigSlack) {
		return fmt.Errorf("core: Slack %v outside [1, %d]", c.Slack, maxConfigSlack)
	}
	if c.Universe == 0 {
		c.Universe = 1 << 63
	}
	return nil
}

// dynLevel is one retrieval array A_i with its private expander.
type dynLevel struct {
	graph  *expander.Family
	block0 int // block offset of this array within the retrieval region
	blocks int // per-disk footprint
	count  int // keys currently stored at this level
}

// DynamicDict is the dynamic dictionary of Theorem 7: a membership
// sub-dictionary (Section 4.1) on d disks plus a cascade of retrieval
// arrays A_1 ⊃ A_2 ⊃ … of geometrically decreasing size on another d
// disks, each indexed by its own expander. Insertion is first-fit: a key
// goes to the first array offering t = ⌈2d/3⌉ currently-free fields
// among its neighbors, where its satellite is chained exactly as in the
// static CaseA layout.
//
// Costs (measured, and verified in tests):
//   - unsuccessful search: 1 parallel I/O (the first probe batches the
//     membership buckets with A_1's fields);
//   - successful search: 1 I/O for keys resident in A_1, 2 I/Os for
//     deeper keys — at most 1+ɛ on average, since a ≤ Ratio^i fraction
//     of keys lives below level i;
//   - insert: the search reads plus one batched write (2+ɛ on average).
//
// The membership satellite packs the head pointer ("a small integer of
// lg d bits") and the resident level into one word; storing the level
// costs lg l extra bits and caps the worst-case successful search at 2
// I/Os, strictly inside the theorem's O(log n) bound.
type DynamicDict struct {
	mu     sync.RWMutex // lookups shared, updates exclusive
	m      *pdm.Machine
	cfg    DynamicConfig
	d      int
	t      int
	levels []dynLevel // guarded by mu

	fieldWords     int
	fieldBits      int
	fieldsPerBlock int
	arr            region
	memb           *BasicDict
	n              int // guarded by mu
	scratch        scratchPool
}

// NewDynamic creates an empty dictionary. The machine must have an even
// number of disks, 2d; the theorem's constraint d > 6(1+1/ɛ) is
// enforced.
func NewDynamic(m *pdm.Machine, cfg DynamicConfig) (*DynamicDict, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if m.D()%2 != 0 {
		return nil, fmt.Errorf("core: DynamicDict needs an even disk count, got %d", m.D())
	}
	d := m.D() / 2
	if float64(d) <= 6*(1+1/cfg.Epsilon) {
		return nil, fmt.Errorf("core: Theorem 7 requires d > 6(1+1/ɛ): d=%d, ɛ=%v needs d > %.1f",
			d, cfg.Epsilon, 6*(1+1/cfg.Epsilon))
	}
	if d > 255 {
		return nil, fmt.Errorf("core: degree %d exceeds the packed head-pointer range (255)", d)
	}
	t := ceilDiv(2*d, 3)

	dd := &DynamicDict{m: m, cfg: cfg, d: d, t: t}
	dd.fieldBits = chainFieldBits(64*cfg.SatWords, t, d)
	dd.fieldWords = ceilDiv(dd.fieldBits, 64)
	if dd.fieldWords == 0 {
		dd.fieldWords = 1
	}
	dd.fieldBits = 64 * dd.fieldWords
	if dd.fieldWords > m.B() {
		return nil, fmt.Errorf("core: field of %d words exceeds block size %d", dd.fieldWords, m.B())
	}
	dd.fieldsPerBlock = m.B() / dd.fieldWords
	dd.arr = region{m: m, disk0: d, nDisks: d}

	// Geometric cascade: array i has Slack·N·Ratio^(i-1) fields per
	// stripe, down to a floor where a single key's chain still fits
	// comfortably.
	perStripe := cfg.Slack * float64(cfg.Capacity)
	block0 := 0
	for {
		sf := ceilDiv(int(perStripe), dd.fieldsPerBlock) * dd.fieldsPerBlock
		if sf < dd.fieldsPerBlock {
			sf = dd.fieldsPerBlock
		}
		lv := dynLevel{
			graph:  expander.NewFamily(cfg.Universe, d, sf, cfg.Seed+uint64(len(dd.levels))+1),
			block0: block0,
			blocks: sf / dd.fieldsPerBlock,
		}
		dd.levels = append(dd.levels, lv)
		block0 += lv.blocks
		if sf == dd.fieldsPerBlock || len(dd.levels) >= dd.maxLevels() {
			break
		}
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
	dd.memb = memb
	return dd, nil
}

// maxLevels bounds l at ⌈log N / log(1/Ratio)⌉ + 1, the paper's level
// count.
func (dd *DynamicDict) maxLevels() int {
	l := int(math.Ceil(math.Log(float64(dd.cfg.Capacity))/math.Log(1/dd.cfg.Ratio))) + 1
	if l < 1 {
		l = 1
	}
	return l
}

// Len returns the number of keys stored.
func (dd *DynamicDict) Len() int {
	dd.mu.RLock()
	defer dd.mu.RUnlock()
	return dd.n
}

// Capacity returns N.
func (dd *DynamicDict) Capacity() int { return dd.cfg.Capacity }

// Levels returns the number of retrieval arrays.
func (dd *DynamicDict) Levels() int {
	dd.mu.RLock()
	defer dd.mu.RUnlock()
	return len(dd.levels)
}

// LevelCounts returns how many keys reside at each level — the
// geometric decay Theorem 7's averaging argument rests on.
func (dd *DynamicDict) LevelCounts() []int {
	dd.mu.RLock()
	defer dd.mu.RUnlock()
	out := make([]int, len(dd.levels))
	for i, lv := range dd.levels {
		out[i] = lv.count
	}
	return out
}

// BlocksPerDisk returns the per-disk space footprint (maximum over the
// membership and retrieval regions).
func (dd *DynamicDict) BlocksPerDisk() int {
	dd.mu.RLock()
	defer dd.mu.RUnlock()
	last := dd.levels[len(dd.levels)-1]
	b := last.block0 + last.blocks
	if mb := dd.memb.BlocksPerDisk(); mb > b {
		b = mb
	}
	return b
}

// levelAddrs appends the d block addresses holding Γ_i(x)'s fields at
// the given level.
func (dd *DynamicDict) levelAddrs(lv *dynLevel, x pdm.Word, dst []pdm.Addr) []pdm.Addr {
	for i := 0; i < dd.d; i++ {
		j := lv.graph.StripeNeighbor(uint64(x), i)
		dst = append(dst, dd.arr.addr(i, lv.block0+j/dd.fieldsPerBlock))
	}
	return dst
}

// fieldsOf extracts the d per-stripe field slices of x from that
// level's freshly read blocks, into the scratch's field table.
func (dd *DynamicDict) fieldsOf(sc *probeScratch, lv *dynLevel, x pdm.Word, blocks [][]pdm.Word) [][]pdm.Word {
	sc.fields = sc.fields[:0]
	for i := 0; i < dd.d; i++ {
		j := lv.graph.StripeNeighbor(uint64(x), i)
		slot := (j % dd.fieldsPerBlock) * dd.fieldWords
		sc.fields = append(sc.fields, blocks[i][slot:slot+dd.fieldWords])
	}
	return sc.fields
}

// probe1Locked appends x's first-round addresses: the membership buckets,
// then A_1's d field blocks (disjoint disks — one parallel I/O).
func (dd *DynamicDict) probe1Locked(sc *probeScratch, x pdm.Word, dst []pdm.Addr) []pdm.Addr {
	return dd.levelAddrs(&dd.levels[0], x, dd.memb.probeAddrs(sc, x, dst))
}

// residenceLocked resolves x's membership record against the membership part
// of a first-round read: the chain's head stripe and resident level.
func (dd *DynamicDict) residenceLocked(sc *probeScratch, x pdm.Word, membBlocks [][]pdm.Word) (head, level int, ok bool) {
	membSat, ok := dd.memb.lookupInBlocks(sc, x, membBlocks, sc.memb[:0])
	if !ok {
		return 0, 0, false
	}
	head, level = int(membSat[0]&0xFF), int(membSat[0]>>8)
	return head, level, level < len(dd.levels)
}

// Lookup returns a copy of x's satellite and whether x is present.
func (dd *DynamicDict) Lookup(x pdm.Word) ([]pdm.Word, bool) {
	return dd.LookupOp(nil, x)
}

// LookupOp is Lookup attributed to the operation token op: the spans
// and read batches carry the op's ID and the op is charged their exact
// cost. A nil op keeps the legacy shared-stack attribution.
func (dd *DynamicDict) LookupOp(op *pdm.Op, x pdm.Word) ([]pdm.Word, bool) {
	dd.mu.RLock()
	defer dd.mu.RUnlock()
	defer dd.m.OpSpan(op, obs.TagLookup)()
	sc := dd.scratch.get()
	defer dd.scratch.put(sc)
	// First parallel I/O: membership probe + A_1 fields, disjoint disks.
	sc.one = dd.probe1Locked(sc, x, sc.one[:0])
	membLen := dd.memb.probeLen()
	flat := dd.m.BatchReadInto(&sc.buf, op, nil, sc.one)

	head, level, ok := dd.residenceLocked(sc, x, flat[:membLen])
	if !ok {
		return nil, false // unsuccessful search: exactly 1 I/O
	}
	lv := &dd.levels[level]
	blocks := flat[membLen:]
	if level > 0 {
		sc.one = dd.levelAddrs(lv, x, sc.one[:0])
		blocks = dd.m.BatchReadInto(&sc.buf, op, nil, sc.one) // second I/O
	}
	return decodeChain(dd.fieldBits, dd.cfg.SatWords, dd.fieldsOf(sc, lv, x, blocks), head)
}

// Contains reports presence at the Lookup cost (1 I/O when absent).
func (dd *DynamicDict) Contains(x pdm.Word) bool {
	_, ok := dd.Lookup(x)
	return ok
}

// LookupBatch resolves many keys in at most two batched reads: round
// one fetches every key's membership buckets and A_1 fields together
// (de-duplicated) in a single parallel I/O, and the keys resident
// deeper than A_1 — a ≤ Ratio fraction on average — share one second
// batch. Results are positionally aligned with keys.
func (dd *DynamicDict) LookupBatch(keys []pdm.Word) ([][]pdm.Word, []bool) {
	return dd.LookupBatchOp(nil, keys)
}

// LookupBatchOp is LookupBatch attributed to the operation token op.
func (dd *DynamicDict) LookupBatchOp(op *pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool) {
	dd.mu.RLock()
	defer dd.mu.RUnlock()
	defer dd.m.OpSpan(op, obs.TagLookup)()
	sc := dd.scratch.get()
	defer dd.scratch.put(sc)
	return dd.lookupMergedLocked(sc, op, nil, keys)
}

// deepKey is a key of a merged lookup that resides below A_1 and so
// needs the second round.
type deepKey struct {
	ki    int
	level int
	head  int
}

// lookupMergedLocked is the two-round merged probe behind LookupBatchOp (both
// rounds attributed to op) and LookupSharedOp (shared[i] owns keys[i]:
// round one is attributed to every participant, round two only to the
// deep keys' tokens, so shallow participants are charged one round).
func (dd *DynamicDict) lookupMergedLocked(sc *probeScratch, op *pdm.Op, shared []*pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool) {
	membLen := dd.memb.probeLen()
	sc.r1.reset()
	for _, x := range keys {
		sc.one = dd.probe1Locked(sc, x, sc.one[:0])
		sc.r1.add(sc.one)
	}
	flat := dd.m.BatchReadInto(&sc.buf, op, shared, sc.r1.addrs)

	sats := make([][]pdm.Word, len(keys))
	oks := make([]bool, len(keys))
	sc.deep, sc.ops = sc.deep[:0], sc.ops[:0]
	sc.r2.reset()
	view := sc.keyView(membLen + dd.d)
	for ki, x := range keys {
		sc.r1.keyBlocks(ki, flat, view)
		head, level, ok := dd.residenceLocked(sc, x, view[:membLen])
		if !ok {
			continue
		}
		if level == 0 {
			sats[ki], oks[ki] = decodeChain(dd.fieldBits, dd.cfg.SatWords, dd.fieldsOf(sc, &dd.levels[0], x, view[membLen:]), head)
			continue
		}
		sc.deep = append(sc.deep, deepKey{ki: ki, level: level, head: head})
		if shared != nil {
			sc.ops = append(sc.ops, shared[ki])
		}
		sc.one = dd.levelAddrs(&dd.levels[level], x, sc.one[:0])
		sc.r2.add(sc.one)
	}
	if len(sc.deep) > 0 {
		// Round one's blocks are spent, so its buffer serves round two.
		flat = dd.m.BatchReadInto(&sc.buf, op, sc.ops, sc.r2.addrs)
		blocks := view[:dd.d]
		for di, dk := range sc.deep {
			sc.r2.keyBlocks(di, flat, blocks)
			x := keys[dk.ki]
			sats[dk.ki], oks[dk.ki] = decodeChain(dd.fieldBits, dd.cfg.SatWords, dd.fieldsOf(sc, &dd.levels[dk.level], x, blocks), dk.head)
		}
		clear(sc.ops)
	}
	return sats, oks
}

// Insert stores (x, sat). Existing keys are updated in place (their old
// chain is released first). The insertion is first-fit over the level
// cascade; ErrFull is returned if no level offers t free fields, which
// parameters in the theorem's regime make vanishingly unlikely below
// Capacity.
func (dd *DynamicDict) Insert(x pdm.Word, sat []pdm.Word) error {
	return dd.InsertOp(nil, x, sat)
}

// InsertOp is Insert attributed to the operation token op.
func (dd *DynamicDict) InsertOp(op *pdm.Op, x pdm.Word, sat []pdm.Word) error {
	if len(sat) != dd.cfg.SatWords {
		return fmt.Errorf("core: satellite of %d words, config says %d", len(sat), dd.cfg.SatWords)
	}
	if uint64(x) >= dd.cfg.Universe {
		return fmt.Errorf("core: key %d outside universe %d", x, dd.cfg.Universe)
	}
	dd.mu.Lock()
	defer dd.mu.Unlock()
	defer dd.m.OpSpan(op, obs.TagInsert)()
	sc := dd.scratch.get()
	defer dd.scratch.put(sc)

	// First parallel I/O: membership + A_1.
	sc.one = dd.probe1Locked(sc, x, sc.one[:0])
	membLen := dd.memb.probeLen()
	flat := dd.m.BatchReadOp(op, sc.one)
	membBlocks := flat[:membLen]

	var writes []pdm.BlockWrite
	if membSat, present := dd.memb.lookupInBlocks(sc, x, membBlocks, sc.memb[:0]); present {
		// Update: release the old chain first. If it lives at level 0
		// the clears mutate the blocks already in hand and join the
		// final write batch; a deeper chain is cleared with its own
		// read+write (rare — a ≤ Ratio fraction of keys).
		releaseWrites, oldLevel := dd.releaseChainLocked(sc, op, x, membSat, flat[membLen:])
		if oldLevel == 0 {
			writes = append(writes, releaseWrites...)
		} else if len(releaseWrites) > 0 {
			dd.m.BatchWriteOp(op, releaseWrites)
		}
	} else if dd.n >= dd.cfg.Capacity {
		return ErrFull
	}

	// First-fit over levels. Level 0's blocks are already in hand.
	levelBlocks := flat[membLen:]
	for li := range dd.levels {
		lv := &dd.levels[li]
		if li > 0 {
			levelBlocks = dd.m.BatchReadOp(op, dd.levelAddrs(lv, x, nil))
		}
		free := dd.freeStripes(sc, lv, x, levelBlocks)
		if len(free) < dd.t {
			continue
		}
		free = free[:dd.t]
		contents := encodeChain(dd.fieldBits, dd.fieldWords, free, sat)
		for p, stripe := range free {
			j := lv.graph.StripeNeighbor(uint64(x), stripe)
			blk := levelBlocks[stripe]
			copy(blk[(j%dd.fieldsPerBlock)*dd.fieldWords:], contents[p])
			writes = append(writes, pdm.BlockWrite{
				Addr: dd.arr.addr(stripe, lv.block0+j/dd.fieldsPerBlock),
				Data: blk,
			})
		}
		// Membership entry: head | level<<8, batched into the same
		// final write (membership disks are disjoint from the array
		// disks, so the whole batch is one parallel I/O).
		dd.memb.mu.Lock()
		membWrites, err := dd.memb.insertWritesLocked(sc, x, []pdm.Word{pdm.Word(free[0]) | pdm.Word(li)<<8}, membBlocks)
		dd.memb.mu.Unlock()
		if err != nil {
			if len(writes) > 0 {
				dd.m.BatchWriteOp(op, dedupeWrites(writes))
			}
			return err
		}
		writes = append(writes, membWrites...)
		dd.m.BatchWriteOp(op, dedupeWrites(writes))
		lv.count++
		dd.n++
		return nil
	}
	// No level could host the chain. Flush the release writes and drop
	// the membership entry so a failed update leaves x consistently
	// absent rather than pointing at a cleared chain.
	dd.memb.mu.Lock()
	membWrites, _ := dd.memb.deleteWritesLocked(sc, x, membBlocks)
	dd.memb.mu.Unlock()
	writes = append(writes, membWrites...)
	if len(writes) > 0 {
		dd.m.BatchWriteOp(op, dedupeWrites(writes))
	}
	return ErrFull
}

// freeStripes returns the stripes whose field for x is unused at this
// level, in stripe order.
func (dd *DynamicDict) freeStripes(sc *probeScratch, lv *dynLevel, x pdm.Word, blocks [][]pdm.Word) []int {
	fields := dd.fieldsOf(sc, lv, x, blocks)
	free := make([]int, 0, dd.d)
	for i, f := range fields {
		if !fieldUsed(f) {
			free = append(free, i)
		}
	}
	return free
}

// releaseChain clears x's chain fields at its resident level and returns
// the block writes plus that level. Level-0 blocks are supplied by the
// caller (already read) and are mutated in place; deeper levels cost one
// extra read batch. Membership is NOT touched; callers either rewrite
// the entry (update) or delete it (Delete) in their own batch.
func (dd *DynamicDict) releaseChainLocked(sc *probeScratch, op *pdm.Op, x pdm.Word, membSat []pdm.Word, level0Blocks [][]pdm.Word) ([]pdm.BlockWrite, int) {
	head := int(membSat[0] & 0xFF)
	level := int(membSat[0] >> 8)
	if level >= len(dd.levels) {
		return nil, level
	}
	lv := &dd.levels[level]
	blocks := level0Blocks
	if level > 0 {
		blocks = dd.m.BatchReadOp(op, dd.levelAddrs(lv, x, nil))
	}
	fields := dd.fieldsOf(sc, lv, x, blocks)
	var writes []pdm.BlockWrite
	cur := head
	for cur >= 0 && cur < dd.d && fieldUsed(fields[cur]) {
		diff := chainDiff(fields[cur], dd.fieldBits)
		for i := range fields[cur] {
			fields[cur][i] = 0
		}
		j := lv.graph.StripeNeighbor(uint64(x), cur)
		writes = append(writes, pdm.BlockWrite{
			Addr: dd.arr.addr(cur, lv.block0+j/dd.fieldsPerBlock),
			Data: blocks[cur],
		})
		if diff == 0 {
			break
		}
		cur += diff
	}
	lv.count--
	dd.n--
	return dedupeWrites(writes), level
}

// Delete removes x and reports whether it was present. Cost: one read
// batch, one extra read for deep keys, one write batch.
func (dd *DynamicDict) Delete(x pdm.Word) bool {
	return dd.DeleteOp(nil, x)
}

// DeleteOp is Delete attributed to the operation token op.
func (dd *DynamicDict) DeleteOp(op *pdm.Op, x pdm.Word) bool {
	dd.mu.Lock()
	defer dd.mu.Unlock()
	defer dd.m.OpSpan(op, obs.TagDelete)()
	sc := dd.scratch.get()
	defer dd.scratch.put(sc)
	sc.one = dd.probe1Locked(sc, x, sc.one[:0])
	membLen := dd.memb.probeLen()
	flat := dd.m.BatchReadOp(op, sc.one)
	membSat, ok := dd.memb.lookupInBlocks(sc, x, flat[:membLen], sc.memb[:0])
	if !ok {
		return false
	}
	writes, _ := dd.releaseChainLocked(sc, op, x, membSat, flat[membLen:])
	dd.memb.mu.Lock()
	membWrites, _ := dd.memb.deleteWritesLocked(sc, x, flat[:membLen])
	dd.memb.mu.Unlock()
	writes = append(writes, membWrites...)
	if len(writes) > 0 {
		dd.m.BatchWriteOp(op, dedupeWrites(writes))
	}
	return true
}

// dedupeWrites keeps only the last write to each address, preserving
// order otherwise. Updates touching the same block twice (release +
// re-place) must not resurrect stale contents.
func dedupeWrites(writes []pdm.BlockWrite) []pdm.BlockWrite {
	last := make(map[pdm.Addr]int, len(writes))
	for i, w := range writes {
		last[w.Addr] = i
	}
	out := writes[:0]
	for i, w := range writes {
		if last[w.Addr] == i {
			out = append(out, w)
		}
	}
	return out
}
