package core

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"pdmdict/internal/expander"
	"pdmdict/internal/pdm"
)

// cascade is the chained-level dictionary of Section 4.3, which Section
// 6 applies "recursively, for some constant number of levels": a
// membership sub-dictionary (Section 4.1) on d disks, recording each
// key's chain head and resident level, plus retrieval levels
// A_1 ⊃ A_2 ⊃ … of decreasing size, each indexed by its own expander.
// Insertion is first-fit: a key goes to the first level offering
// t = ⌈2d/3⌉ currently-free fields among its neighbors, where its
// satellite is chained as in Theorem 6(a).
//
// DynamicDict, OneProbeDict and StaticDict all look up through this one
// body. Dynamic and OneProbe differ only in where their levels live.
// The layout decides how many levels the first probe reads (pre): the
// prefix of levels on pairwise-disjoint disk groups, whose fields all
// arrive in the same parallel I/O as the membership buckets. A key
// resident at a level beyond pre costs a second read round, shared by
// every such key of a merged lookup. Static is one level built by
// peeling, with pre = 1: Theorem 6(a) with its membership table, and
// 6(b) with none and identifier fields (idBits > 0), which decode by
// majority rather than as chains. Static calls no update body.
//
// The membership satellite packs the head pointer ("a small integer of
// lg d bits") and the resident level into one word: head | level<<8.
//
// Fields are packed at their bit width, the paper's O(σ/t + log d) bits:
// ⌊64·B/fieldBits⌋ to a block, field j of a stripe at bit
// (j mod fieldsPerBlock)·fieldBits of its block j/fieldsPerBlock, none
// straddling a block. Each level's range of fields per stripe is rounded
// up to a multiple of rangeUnit, the fields per block of a layout that
// pads every field to whole words, so ranges, expanders and therefore
// placements are those of that layout, in a fraction of its blocks.
type cascade struct {
	mu       sync.RWMutex // lookups shared, updates exclusive
	m        *pdm.Machine
	d        int
	t        int
	capacity int
	satWords int
	universe uint64
	memb     *BasicDict
	levels   []level // guarded by mu
	pre      int     // levels [0, pre) are read by the first probe

	fieldBits      int
	fieldsPerBlock int
	idBits         int // Theorem 6(b)'s identifier width; 0: chained fields
	n              int // guarded by mu
	scratch        scratchPool

	retry pdm.RetryPolicy // guarded by mu; degraded-read recovery policy (zero = default)
}

// level is one retrieval array A_i with its private expander, at
// reg.block0 within its disk group.
type level struct {
	graph  *expander.Family
	reg    region
	blocks int // per-disk footprint: the range's packed fields, in blocks
	count  int // keys currently stored at this level
}

// fieldGeometry returns the packed layout of fieldBits-bit fields in
// blocks of b words, and the unit a level's range is rounded to: the
// fields per block of a layout padding each field to whole words.
func fieldGeometry(fieldBits, b int) (fieldsPerBlock, rangeUnit int, err error) {
	if fieldBits > 64*b {
		return 0, 0, fmt.Errorf("core: field of %d bits exceeds a block of %d words", fieldBits, b)
	}
	return 64 * b / fieldBits, b / ceilDiv(fieldBits, 64), nil
}

// cascadeSizing is what a structure's configuration fixes about its
// cascade: N, the satellite size, the universe, the expander seed (level
// i uses Seed+i+1, membership Seed), the first level's Slack·N fields per
// stripe and the Ratio between consecutive levels.
type cascadeSizing struct {
	Capacity int
	SatWords int
	Universe uint64
	Seed     uint64
	Slack    float64
	Ratio    float64
}

// initLocked lays out a cascade of degree d on m: the membership
// sub-dictionary on disks [0, d), then levels of geometrically
// decreasing size (never below one range unit per stripe) wherever
// place puts them. place gets each level's index, its per-disk
// footprint and whether its range is at that floor, and returns its
// region and whether it is the last. Only constructors call it, on a
// structure no other goroutine can see yet.
func (c *cascade) initLocked(m *pdm.Machine, d int, s cascadeSizing, place func(li, blocks int, floor bool) (reg region, last bool)) error {
	if err := checkHeadRange(d); err != nil {
		return err
	}
	c.m, c.d, c.t = m, d, ceilDiv(2*d, 3)
	c.capacity, c.satWords, c.universe = s.Capacity, s.SatWords, s.Universe
	c.fieldBits = chainFieldBits(64*s.SatWords, c.t, d)
	var unit int
	var err error
	if c.fieldsPerBlock, unit, err = fieldGeometry(c.fieldBits, m.B()); err != nil {
		return err
	}

	perStripe := s.Slack * float64(s.Capacity)
	for last := false; !last; perStripe *= s.Ratio {
		sf := max(ceilDiv(int(perStripe), unit)*unit, unit)
		li := len(c.levels)
		lv := level{
			graph:  expander.NewFamily(s.Universe, d, sf, s.Seed+uint64(li)+1),
			blocks: ceilDiv(sf, c.fieldsPerBlock),
		}
		lv.reg, last = place(li, lv.blocks, sf == unit)
		c.levels = append(c.levels, lv)
	}
	c.pre = disjointPrefix(c.levels)

	memb, err := newBasicAt(region{m: m, disk0: 0, nDisks: d}, BasicConfig{
		Capacity: s.Capacity,
		SatWords: 1, // head | level<<8
		Universe: s.Universe,
		Seed:     s.Seed,
	})
	if err != nil {
		return err
	}
	c.memb = memb
	return nil
}

// checkHeadRange rejects a degree whose chain heads overflow the low
// byte of the membership record, head | level<<8.
func checkHeadRange(d int) error {
	if d > 255 {
		return fmt.Errorf("core: degree %d exceeds the packed head-pointer range (255)", d)
	}
	return nil
}

// disjointPrefix is the number of leading levels whose disk groups are
// pairwise disjoint: one parallel I/O can read all their fields.
func disjointPrefix(levels []level) int {
	for k := 1; k < len(levels); k++ {
		r := levels[k].reg
		for _, lv := range levels[:k] {
			if r.disk0 < lv.reg.disk0+lv.reg.nDisks && lv.reg.disk0 < r.disk0+r.nDisks {
				return k
			}
		}
	}
	return len(levels)
}

// chainDiff peeks a chain field's next-stripe difference without
// decoding the data bits; a damaged pointer reads as the chain's end.
func chainDiff(f field, fieldBits int) int {
	r := f.reader(fieldBits)
	r.ReadBits(1)
	if diff, whole := readDiff(&r); whole {
		return diff
	}
	return 0
}

// Len returns the number of keys stored.
func (c *cascade) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// Capacity returns N.
func (c *cascade) Capacity() int { return c.capacity }

// SatWords returns the satellite size per key, in words.
func (c *cascade) SatWords() int { return c.satWords }

// Levels returns the number of retrieval levels.
func (c *cascade) Levels() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.levels)
}

// LevelCounts returns how many keys reside at each level — the
// geometric decay Theorem 7's averaging argument rests on.
func (c *cascade) LevelCounts() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.countsLocked()
}

func (c *cascade) countsLocked() []int {
	out := make([]int, len(c.levels))
	for i, lv := range c.levels {
		out[i] = lv.count
	}
	return out
}

// BlocksPerDisk returns the per-disk space footprint: the maximum over
// the membership region and every level's extent in its group.
func (c *cascade) BlocksPerDisk() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b := 0
	if c.memb != nil {
		b = c.memb.BlocksPerDisk()
	}
	for _, lv := range c.levels {
		b = max(b, lv.reg.block0+lv.blocks)
	}
	return b
}

// SetRetryPolicy installs the policy LookupTry uses for transient-error
// recovery. The zero value restores the default (three immediate
// retries, no backoff, no hedging).
func (c *cascade) SetRetryPolicy(p pdm.RetryPolicy) {
	c.mu.Lock()
	c.retry = p
	c.mu.Unlock()
}

func (c *cascade) machine() *pdm.Machine  { return c.m }
func (c *cascade) membership() *BasicDict { return c.memb }

// levelAddrs appends the d block addresses holding Γ_i(x)'s fields at
// the given level.
func (c *cascade) levelAddrs(lv *level, x pdm.Word, dst []pdm.Addr) []pdm.Addr {
	for i := 0; i < c.d; i++ {
		j := lv.graph.StripeNeighbor(uint64(x), i)
		dst = append(dst, lv.reg.addr(i, j/c.fieldsPerBlock))
	}
	return dst
}

// fieldsOf views the d per-stripe fields of x in that level's blocks,
// into the scratch's field table. A missing block's field has a nil
// block.
func (c *cascade) fieldsOf(sc *probeScratch, lv *level, x pdm.Word, blocks [][]pdm.Word) []field {
	sc.fields = sc.fields[:0]
	for i := 0; i < c.d; i++ {
		off := (lv.graph.StripeNeighbor(uint64(x), i) % c.fieldsPerBlock) * c.fieldBits
		sc.fields = append(sc.fields, field{blk: blocks[i], off: off})
	}
	return sc.fields
}

// membLen is the membership part of a first-round probe: none without a
// membership table.
func (c *cascade) membLen() int {
	if c.memb == nil {
		return 0
	}
	return c.memb.probeLen()
}

// probeLocked appends x's first-round addresses: the membership buckets,
// then d field blocks for each of levels [0, pre) — disjoint disks, one
// parallel I/O.
func (c *cascade) probeLocked(sc *probeScratch, x pdm.Word, dst []pdm.Addr) []pdm.Addr {
	if c.memb != nil {
		dst = c.memb.probeAddrs(sc, x, dst)
	}
	for li := range c.pre {
		dst = c.levelAddrs(&c.levels[li], x, dst)
	}
	return dst
}

// inProbe returns level li's d field blocks out of a first-round read
// (li < pre).
func (c *cascade) inProbe(flat [][]pdm.Word, li int) [][]pdm.Word {
	lo := c.membLen() + li*c.d
	return flat[lo : lo+c.d]
}

// levelBlocksLocked returns x's d field blocks at level li for an
// update: out of the first-round read when the probe covered li,
// otherwise from a read of their own into buf2, since the first round's
// blocks still await the final write.
func (c *cascade) levelBlocksLocked(sc *probeScratch, op *pdm.Op, x pdm.Word, flat [][]pdm.Word, li int) [][]pdm.Word {
	if li < c.pre {
		return c.inProbe(flat, li)
	}
	sc.one = c.levelAddrs(&c.levels[li], x, sc.one[:0])
	return c.m.BatchReadInto(&sc.buf2, op, nil, sc.one)
}

// residenceLocked resolves x's membership record against the membership
// part of a first-round read: the chain's head stripe and resident
// level. found reports a record; ok, that its level exists. Without a
// membership table every key is looked for on the one level.
func (c *cascade) residenceLocked(sc *probeScratch, x pdm.Word, membBlocks [][]pdm.Word) (head, level int, found, ok bool) {
	if c.memb == nil {
		return 0, 0, true, true
	}
	membSat, found := c.memb.lookupInBlocks(sc, x, membBlocks, sc.memb[:0])
	if !found {
		return 0, 0, false, false
	}
	head, level = int(membSat[0]&0xFF), int(membSat[0]>>8)
	return head, level, true, level < len(c.levels)
}

// decodeLocked reads x's satellite out of level li's d field blocks
// into the scratch's words: by majority identifier, or by walking x's
// chain from head. found reports x there. [lo, hi) is empty once the
// answer is settled; otherwise it spans the stripes whose missing
// blocks the answer may still need. A chain needs only the fields it
// walks, and the walk stops at the first missing one; since stripes
// increase along a chain, the rest of it lies above, and retrying every
// missing block from there on costs one round, not one per gap.
func (c *cascade) decodeLocked(sc *probeScratch, x pdm.Word, li, head int, blocks [][]pdm.Word) (found bool, lo, hi int) {
	fields := c.fieldsOf(sc, &c.levels[li], x, blocks)
	sat := sc.decoded(c.satWords)
	if c.idBits > 0 {
		found, open := decodeMajority(c.fieldBits, c.idBits, fields, sat)
		if open {
			return false, 0, c.d
		}
		return found, 0, 0
	}
	gap, found := decodeChain(c.fieldBits, fields, head, sat)
	if gap >= 0 {
		return false, gap, c.d
	}
	return found, 0, 0
}

// answerLocked decodes x's satellite at level li into sat and ok: a
// copy written into (*sat)[:0] when its capacity holds the satellite
// (see answerBuf), or nil and false when x is not found there. It
// reports false when a degraded read missed a block the answer needs.
func (c *cascade) answerLocked(sc *probeScratch, x pdm.Word, li, head int, blocks [][]pdm.Word, sat *[]pdm.Word, ok *bool) bool {
	found, lo, hi := c.decodeLocked(sc, x, li, head, blocks)
	if found {
		*sat, *ok = append(answerBuf(*sat, c.satWords), sc.words...), true
	} else {
		*sat = nil
	}
	return lo == hi
}

// readLocked issues one read round of a lookup into the scratch's
// buffer, round one's merged probe or, with round2, the deep keys'
// fields: plainly, attributed to op and shared, or under try through
// the fault layer. A fault-aware round's retries, within the policy,
// re-issue only failed blocks some key's answer still needs.
func (c *cascade) readLocked(sc *probeScratch, op *pdm.Op, shared []*pdm.Op, keys []pdm.Word, round2, try bool) ([][]pdm.Word, error) {
	dd := &sc.r1
	if round2 {
		dd = &sc.r2
	}
	if !try {
		return c.m.BatchReadInto(&sc.buf, op, shared, dd.addrs), nil
	}
	flat, err := c.m.TryBatchReadInto(&sc.buf, op, nil, dd.addrs)
	for attempt, retried := 0, true; retried && err != nil && attempt < c.retry.Retries(); attempt++ {
		if !c.markUnsettledLocked(sc, keys, flat, round2) {
			break
		}
		retried, err = sc.retries.retry(c.m, op, c.retry, attempt, dd.addrs, flat, err, sc.retries.need)
	}
	return flat, err
}

// markUnsettledLocked is BasicDict.markUnsettledLocked for a lookup
// round. In round one, a key whose membership record the read has not
// resolved needs its missing membership blocks, and one resident on a
// probed level the missing fields its answer needs there (decodeLocked).
// A key resident deeper is settled as far as round one goes — round two
// reads its level — and so is one the membership blocks prove absent.
// In round two, a deep key needs the missing fields its answer needs.
func (c *cascade) markUnsettledLocked(sc *probeScratch, keys []pdm.Word, flat [][]pdm.Word, round2 bool) bool {
	need := sc.retries.marks(len(flat))
	marked := false
	if round2 {
		blocks := sc.keyView(c.d)
		for di, dk := range sc.deep {
			sc.r2.keyBlocks(di, flat, blocks)
			_, lo, hi := c.decodeLocked(sc, keys[dk.ki], dk.level, dk.head, blocks)
			marked = sc.r2.markMissing(di, blocks, lo, hi, need) || marked
		}
		return marked
	}
	membLen := c.membLen()
	view := sc.keyView(membLen + c.pre*c.d)
	for ki, x := range keys {
		sc.r1.keyBlocks(ki, flat, view)
		if !hasNil(view) {
			continue
		}
		head, level, found, ok := c.residenceLocked(sc, x, view[:membLen])
		switch {
		case !found:
			marked = sc.r1.markMissing(ki, view, 0, membLen, need) || marked
		case ok && level < c.pre:
			base := membLen + level*c.d
			_, lo, hi := c.decodeLocked(sc, x, level, head, view[base:base+c.d])
			marked = sc.r1.markMissing(ki, view, base+lo, base+hi, need) || marked
		}
	}
	return marked
}

// Lookup returns a copy of x's satellite and whether x is present: one
// parallel I/O when x is absent or resides on a level the first probe
// reads, two otherwise.
func (c *cascade) Lookup(x pdm.Word) ([]pdm.Word, bool) {
	return c.LookupOp(nil, x)
}

// LookupOp is Lookup attributed to the operation token op: the spans
// and read batches carry the op's ID and the op is charged their exact
// cost. A nil op keeps the legacy shared-stack attribution.
func (c *cascade) LookupOp(op *pdm.Op, x pdm.Word) ([]pdm.Word, bool) {
	var sat [1][]pdm.Word
	var ok [1]bool
	c.lookup(op, nil, []pdm.Word{x}, sat[:], ok[:], false)
	return sat[0], ok[0]
}

// Contains reports presence at the Lookup cost (1 I/O when absent).
func (c *cascade) Contains(x pdm.Word) bool {
	_, ok := c.Lookup(x)
	return ok
}

// LookupTry is the degraded lookup: each read round goes through the
// fault layer with transient retries under the structure's retry policy.
// Each round retries only what the key still needs — its membership
// blocks until they resolve it, then the fields its chain walks on its
// level — so an absent key, or one found with a deeper level, pays no
// retry for the probed levels' failures, and no key for a field off its
// chain. Membership (K = 1) and retrieval fields are not replicated, so
// a fail-stopped disk among the blocks a key needs makes that key
// unavailable (reported as an error, never as a wrong answer); a failed
// field off the key's chain does not, and transient faults and stalls
// are absorbed.
func (c *cascade) LookupTry(x pdm.Word) ([]pdm.Word, bool, error) {
	return c.LookupTryOp(nil, x)
}

// LookupTryOp is LookupTry attributed to the operation token op: both
// rounds, their retries and any modeled backoff are charged to op. A
// nil op keeps the legacy shared-stack attribution.
func (c *cascade) LookupTryOp(op *pdm.Op, x pdm.Word) ([]pdm.Word, bool, error) {
	var sat [1][]pdm.Word
	var ok [1]bool
	if _, err := c.lookup(op, nil, []pdm.Word{x}, sat[:], ok[:], true); err != nil {
		return nil, false, fmt.Errorf("core: degraded lookup for key %d inconclusive: %w", x, err)
	}
	return sat[0], ok[0], nil
}

// LookupBatchInto resolves many keys in at most two batched reads, into
// caller-owned results attributed as BasicDict.LookupBatchInto
// describes: round one fetches every key's membership buckets and the
// probe's level fields together (de-duplicated) in a single parallel
// I/O, and the keys resident deeper share one second batch. In a shared
// round only the deep keys' tokens ride the second read, so shallow
// participants are charged exactly one round.
func (c *cascade) LookupBatchInto(op *pdm.Op, shared []*pdm.Op, keys []pdm.Word, sats [][]pdm.Word, oks []bool) {
	c.lookup(op, shared, keys, sats, oks, false)
}

// deepKey is a key of a merged lookup that resides beyond the first
// probe's levels and so needs the second round.
type deepKey struct {
	ki    int
	level int
	head  int
}

// lookup is the structure's one lookup body, answering keys into sats
// and oks in at most two merged rounds: every key's membership buckets
// and the fields of levels [0, pre) (an unsuccessful or shallow search
// ends there), then the fields of the keys resident deeper. A single
// key is the batch of one. try is as for BasicDict.lookup; with a
// membership table a miss is inconclusive only when a membership block
// is missing, since the membership record alone settles absence.
func (c *cascade) lookup(op *pdm.Op, shared []*pdm.Op, keys []pdm.Word, sats [][]pdm.Word, oks []bool, try bool) (inconclusive int, err error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc := c.scratch.get()
	defer c.scratch.put(sc)
	sc.openSpans(c.m, pdm.TagLookup, op, shared)
	defer sc.closeSpans()
	membLen := c.membLen()
	sc.r1.reset()
	for _, x := range keys {
		sc.one = c.probeLocked(sc, x, sc.one[:0])
		sc.r1.add(sc.one)
	}
	flat, err := c.readLocked(sc, op, shared, keys, false, try)

	// sats keeps the caller's slices until each key is answered: a hit
	// writes into its own, and every other key's is set to nil.
	clear(oks)
	sc.deep, sc.ops = sc.deep[:0], sc.ops[:0]
	sc.r2.reset()
	view := sc.keyView(membLen + c.pre*c.d)
	for ki, x := range keys {
		sc.r1.keyBlocks(ki, flat, view)
		head, level, found, ok := c.residenceLocked(sc, x, view[:membLen])
		if !found && hasNil(view[:membLen]) {
			inconclusive++
		}
		if !ok {
			sats[ki] = nil
			continue
		}
		if level < c.pre {
			if !c.answerLocked(sc, x, level, head, c.inProbe(view, level), &sats[ki], &oks[ki]) {
				inconclusive++
			}
			continue
		}
		sc.deep = append(sc.deep, deepKey{ki: ki, level: level, head: head})
		if len(shared) > 0 {
			sc.ops = append(sc.ops, shared[ki])
		}
		sc.one = c.levelAddrs(&c.levels[level], x, sc.one[:0])
		sc.r2.add(sc.one)
	}
	if len(sc.deep) == 0 {
		return inconclusive, inconclusiveError(inconclusive, err)
	}
	// Round one's blocks are spent, so its buffer serves round two. Its
	// error aliases that buffer too: copy it first if a key needs it.
	shallow := inconclusive
	first := inconclusiveError(shallow, err)
	flat, err = c.readLocked(sc, op, sc.ops, keys, true, try)
	blocks := view[:c.d]
	for di, dk := range sc.deep {
		sc.r2.keyBlocks(di, flat, blocks)
		if !c.answerLocked(sc, keys[dk.ki], dk.level, dk.head, blocks, &sats[dk.ki], &oks[dk.ki]) {
			inconclusive++
		}
	}
	clear(sc.ops)
	second := inconclusiveError(inconclusive-shallow, err)
	if first == nil || second == nil {
		return inconclusive, cmp.Or(first, second)
	}
	return inconclusive, errors.Join(first, second)
}

// Insert stores (x, sat). Existing keys are updated in place (their old
// chain is released first). The insertion is first-fit over the levels;
// ErrFull is returned if no level offers t free fields, which
// parameters in the theorem's regime make vanishingly unlikely below
// Capacity. Cost: the first probe, one read per level tried beyond it,
// and one batched write.
func (c *cascade) Insert(x pdm.Word, sat []pdm.Word) error {
	return c.InsertOp(nil, x, sat)
}

// InsertOp is Insert attributed to the operation token op.
func (c *cascade) InsertOp(op *pdm.Op, x pdm.Word, sat []pdm.Word) error {
	if len(sat) != c.satWords {
		return fmt.Errorf("core: satellite of %d words, config says %d", len(sat), c.satWords)
	}
	if uint64(x) >= c.universe {
		return fmt.Errorf("core: key %d outside universe %d", x, c.universe)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.m.OpSpan(op, pdm.TagInsert).End()
	sc := c.scratch.get()
	defer c.scratch.put(sc)

	// First parallel I/O: membership + the probe's levels. Its blocks
	// are written back by the final batch.
	sc.one = c.probeLocked(sc, x, sc.one[:0])
	membLen := c.memb.probeLen()
	flat := c.m.BatchReadInto(&sc.buf, op, nil, sc.one)
	membBlocks := flat[:membLen]

	writes := sc.writes[:0]
	if membSat, present := c.memb.lookupInBlocks(sc, x, membBlocks, sc.memb[:0]); present {
		// Update: release the old chain first. If the probe read its
		// level the clears mutate the blocks already in hand and join
		// the final write batch; a deeper chain is cleared with its own
		// read+write, since first-fit reuses buf2.
		var oldLevel int
		writes, oldLevel = c.releaseLocked(sc, op, x, membSat, flat, writes)
		if oldLevel >= c.pre {
			sc.flush(c.m, op, writes)
			writes = writes[:0]
		}
	} else if c.n >= c.capacity {
		return ErrFull
	}

	for li := range c.levels {
		lv := &c.levels[li]
		blocks := c.levelBlocksLocked(sc, op, x, flat, li)
		fields := c.fieldsOf(sc, lv, x, blocks)
		sc.free = freeFields(fields, sc.free[:0])
		if len(sc.free) < c.t {
			continue
		}
		free := sc.free[:c.t]
		mark := len(writes)
		for _, stripe := range free {
			j := lv.graph.StripeNeighbor(uint64(x), stripe)
			writes = append(writes, pdm.BlockWrite{
				Addr: lv.reg.addr(stripe, j/c.fieldsPerBlock),
				Data: blocks[stripe],
			})
		}
		// Membership entry: head | level<<8, batched into the same
		// final write (membership disks are disjoint from the level
		// disks, so the whole batch is one parallel I/O). The chain is
		// encoded only once the entry is placed: a refused entry leaves
		// the level's fields free.
		sc.memb[0] = pdm.Word(free[0]) | pdm.Word(li)<<8
		var err error
		c.memb.mu.Lock()
		writes, err = c.memb.insertWritesLocked(sc, x, sc.memb[:], membBlocks, writes)
		c.memb.mu.Unlock()
		if err != nil {
			sc.flush(c.m, op, slices.Delete(writes, mark, mark+len(free)))
			return err
		}
		encodeChain(c.fieldBits, free, sat, fields)
		sc.flush(c.m, op, writes)
		lv.count++
		c.n++
		return nil
	}
	// No level could host the chain — the open problem's sting, whose
	// recourse is a (non-constant) rebuild. Flush the release writes and
	// drop the membership entry so a failed update leaves x consistently
	// absent rather than pointing at a cleared chain.
	c.memb.mu.Lock()
	writes, _ = c.memb.deleteWritesLocked(sc, x, membBlocks, writes)
	c.memb.mu.Unlock()
	sc.flush(c.m, op, writes)
	return ErrFull
}

// releaseLocked clears x's chain fields at its resident level, appends
// their block writes to writes, and returns the list plus that level.
// A level the first probe read is cleared in flat's blocks in place;
// a deeper one costs one extra read batch, into buf2. Membership is NOT
// touched; callers either rewrite the entry (update) or delete it
// (Delete) in their own batch.
func (c *cascade) releaseLocked(sc *probeScratch, op *pdm.Op, x pdm.Word, membSat []pdm.Word, flat [][]pdm.Word, writes []pdm.BlockWrite) ([]pdm.BlockWrite, int) {
	head := int(membSat[0] & 0xFF)
	li := int(membSat[0] >> 8)
	if li >= len(c.levels) {
		return writes, li
	}
	lv := &c.levels[li]
	blocks := c.levelBlocksLocked(sc, op, x, flat, li)
	fields := c.fieldsOf(sc, lv, x, blocks)
	cur := head
	for cur >= 0 && cur < c.d && fieldUsed(fields[cur]) {
		diff := chainDiff(fields[cur], c.fieldBits)
		fields[cur].clear(c.fieldBits)
		j := lv.graph.StripeNeighbor(uint64(x), cur)
		writes = append(writes, pdm.BlockWrite{
			Addr: lv.reg.addr(cur, j/c.fieldsPerBlock),
			Data: blocks[cur],
		})
		if diff == 0 {
			break
		}
		cur += diff
	}
	lv.count--
	c.n--
	return writes, li
}

// Delete removes x and reports whether it was present. Cost: the first
// probe, one extra read for a key beyond it, one write batch.
func (c *cascade) Delete(x pdm.Word) bool {
	return c.DeleteOp(nil, x)
}

// DeleteOp is Delete attributed to the operation token op.
func (c *cascade) DeleteOp(op *pdm.Op, x pdm.Word) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.m.OpSpan(op, pdm.TagDelete).End()
	sc := c.scratch.get()
	defer c.scratch.put(sc)
	sc.one = c.probeLocked(sc, x, sc.one[:0])
	membLen := c.memb.probeLen()
	flat := c.m.BatchReadInto(&sc.buf, op, nil, sc.one)
	membSat, ok := c.memb.lookupInBlocks(sc, x, flat[:membLen], sc.memb[:0])
	if !ok {
		return false
	}
	writes, _ := c.releaseLocked(sc, op, x, membSat, flat, sc.writes[:0])
	c.memb.mu.Lock()
	writes, _ = c.memb.deleteWritesLocked(sc, x, flat[:membLen], writes)
	c.memb.mu.Unlock()
	sc.flush(c.m, op, writes)
	return true
}

// snapshot writes a structure's header, made by header from the
// cascade's counters, and then the machine, under one read lock so
// the two agree.
func (c *cascade) snapshot(w io.Writer, what string, header func(n, membN int, counts []int) any) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.memb.mu.RLock()
	membN := c.memb.n
	c.memb.mu.RUnlock()
	if err := encodeHeader(w, header(c.n, membN, c.countsLocked())); err != nil {
		return fmt.Errorf("core: encoding %s header: %w", what, err)
	}
	return writeMachine(w, c.m)
}

// restore installs a snapshot header's counters on a cascade freshly
// laid out from the snapshot's configuration, rejecting any outside its
// structural bound.
func (c *cascade) restore(n, membN int, counts []int) error {
	// The cascade is not yet published, but it came from a constructor
	// call; take its locks so the restore writes satisfy the guarded-by
	// contract checked by pdmlint.
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memb.mu.Lock()
	defer c.memb.mu.Unlock()
	if len(counts) != len(c.levels) {
		return fmt.Errorf("core: snapshot has %d levels, layout has %d", len(counts), len(c.levels))
	}
	if err := checkCount("key count", n, c.capacity); err != nil {
		return err
	}
	if err := checkCount("membership count", membN, c.memb.cfg.Capacity); err != nil {
		return err
	}
	c.n = n
	c.memb.n = membN
	for i := range c.levels {
		if err := checkCount("level count", counts[i], c.capacity); err != nil {
			return err
		}
		c.levels[i].count = counts[i]
	}
	return nil
}
