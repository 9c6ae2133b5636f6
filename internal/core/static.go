package core

import (
	"errors"
	"fmt"
	"sort"

	"pdmdict/internal/bitpack"
	"pdmdict/internal/bucket"
	"pdmdict/internal/expander"
	"pdmdict/internal/extsort"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// StaticCase selects between the two layouts of Theorem 6.
type StaticCase int

const (
	// CaseB is Theorem 6(b): d disks; every array field carries an
	// identifier of the key it belongs to, and lookups decode by
	// majority identifier. It makes no assumption on the block size.
	CaseB StaticCase = iota
	// CaseA is Theorem 6(a): 2d disks split between a membership
	// sub-dictionary (Section 4.1, storing a head pointer per key) and a
	// retrieval array whose fields chain to each other with unary-coded
	// relative pointers. It assumes O(log n) keys fit in a block and is
	// the more space-efficient layout.
	CaseA
)

// String names the case as in the paper.
func (c StaticCase) String() string {
	switch c {
	case CaseA:
		return "case-a"
	case CaseB:
		return "case-b"
	default:
		return fmt.Sprintf("StaticCase(%d)", int(c))
	}
}

// ErrDuplicateKey is returned by BuildStatic when the input contains the
// same key twice.
var ErrDuplicateKey = errors.New("core: duplicate key in static input")

// ErrExpansion is returned when the peeling construction cannot make
// progress, i.e. the configured graph is not expanding enough on the
// given key set. Retrying with a different Seed or larger Slack
// resolves it.
var ErrExpansion = errors.New("core: expander assignment failed to make progress")

// StaticConfig parameterizes BuildStatic.
type StaticConfig struct {
	// SatWords is the satellite size per key, in words.
	SatWords int
	// Case selects the Theorem 6 layout; the zero value is CaseB.
	Case StaticCase
	// Slack sets the field array size: v = Slack·n·d fields (the paper's
	// v = O(nd)). 0 defaults to 6, which matches the ε = 1/12 regime the
	// proof of Theorem 6 fixes: a random-family graph with v = 6nd has
	// expected edge-collision mass ≈ (nd)²/2v = nd/12.
	Slack float64
	// Universe is u; 0 defaults to 2^63.
	Universe uint64
	// Seed selects the expanders.
	Seed uint64
	// MemStripes is the internal-memory size for the construction sorts,
	// in stripes. 0 defaults to 8.
	MemStripes int
	// MaxRounds bounds the peeling recursion depth. 0 defaults to 64.
	MaxRounds int
}

func (c *StaticConfig) normalize() error {
	if c.SatWords < 0 {
		return fmt.Errorf("core: negative SatWords")
	}
	if c.Slack == 0 {
		c.Slack = 6
	}
	// NaN-proof: the negated form also rejects NaN from corrupt snapshots.
	if !(c.Slack >= 1 && c.Slack <= maxConfigSlack) {
		return fmt.Errorf("core: Slack %v outside [1, %d]", c.Slack, maxConfigSlack)
	}
	if c.Universe == 0 {
		c.Universe = 1 << 63
	}
	if c.MemStripes == 0 {
		c.MemStripes = 8
	}
	if c.MemStripes < 3 {
		return fmt.Errorf("core: MemStripes %d below 3", c.MemStripes)
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 64
	}
	return nil
}

// StaticDict is the one-probe static dictionary of Section 4.2. Lookups
// cost exactly one parallel I/O — for present keys the satellite is
// returned from that single probe; for absent keys the probe itself
// proves absence. The structure is immutable after construction; the
// dynamic cascade of Section 4.3 (DynamicDict) is its mutable sibling.
type StaticDict struct {
	m     *pdm.Machine
	cfg   StaticConfig
	d     int
	n     int
	t     int // fields assigned per key, ⌈2d/3⌉
	graph *expander.Family

	fieldWords     int
	fieldBits      int // exact bit budget per field
	idBits         int // case B: identifier width, ⌈lg(n+1)⌉
	fieldsPerBlock int
	stripeFields   int
	arr            region

	memb    *BasicDict // case A only
	scratch scratchPool

	// ConstructionIOs records the parallel I/O cost of BuildStatic,
	// for comparison against the cost of sorting nd records (Theorem 6
	// says construction is proportional to that sort).
	ConstructionIOs pdm.Stats
}

// Empty-field encoding: both cases read an all-zero field as empty —
// CaseB packs id+1 into the leading ⌈lg(n+1)⌉ bits, CaseA sets a used
// bit — so fresh (zeroed) blocks need no formatting pass.

// BuildStatic constructs the dictionary over the given records on
// machine m. For CaseB the expander degree d is m.D(); for CaseA it is
// m.D()/2 (the other half of the disks holds the membership
// sub-dictionary), and m.D() must be even.
func BuildStatic(m *pdm.Machine, cfg StaticConfig, recs []bucket.Record) (*StaticDict, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	d := m.D()
	if cfg.Case == CaseA {
		if m.D()%2 != 0 {
			return nil, fmt.Errorf("core: CaseA needs an even disk count, got %d", m.D())
		}
		d = m.D() / 2
	}
	if d < 3 {
		return nil, fmt.Errorf("core: degree %d too small (need d ≥ 3)", d)
	}
	n := len(recs)
	t := ceilDiv(2*d, 3)

	sd := &StaticDict{m: m, cfg: cfg, d: d, n: n, t: t}
	if err := sd.layout(); err != nil {
		return nil, err
	}
	defer m.Span(obs.TagBuild)()
	start := m.Stats()
	if err := sd.construct(recs); err != nil {
		return nil, err
	}
	sd.ConstructionIOs = m.Stats().Sub(start)
	return sd, nil
}

// layout fixes field geometry and creates the sub-structures.
func (sd *StaticDict) layout() error {
	cfg := sd.cfg
	sigma := 64 * cfg.SatWords
	switch cfg.Case {
	case CaseB:
		// Field = identifier of ⌈lg(n+1)⌉ bits (the paper's "identifiers
		// of lg n bits, unique for each element of S"; value id+1 so an
		// all-zero field reads as empty) followed by this field's share
		// of the satellite bits.
		sd.idBits = bitsFor(sd.n + 1)
		sd.fieldBits = sd.idBits + ceilDiv(sigma, sd.t)
		sd.fieldWords = ceilDiv(sd.fieldBits, 64)
		if sd.fieldWords == 0 {
			sd.fieldWords = 1
		}
		sd.fieldBits = 64 * sd.fieldWords
	case CaseA:
		// Per chain: t used bits + unary codes totalling ≤ (d−1)+t bits,
		// leaving t·fieldBits − (2t+d−1) data bits; that must cover σ.
		sd.fieldBits = chainFieldBits(sigma, sd.t, sd.d)
		sd.fieldWords = ceilDiv(sd.fieldBits, 64)
		if sd.fieldWords == 0 {
			sd.fieldWords = 1
		}
		sd.fieldBits = 64 * sd.fieldWords // use the whole allocation
	default:
		return fmt.Errorf("core: unknown static case %v", cfg.Case)
	}
	if sd.fieldWords > sd.m.B() {
		return fmt.Errorf("core: field of %d words exceeds block size %d", sd.fieldWords, sd.m.B())
	}
	sd.fieldsPerBlock = sd.m.B() / sd.fieldWords

	nEff := sd.n
	if nEff == 0 {
		nEff = 1
	}
	// v = Slack·n·d fields total, i.e. Slack·n per stripe.
	sd.stripeFields = int(cfg.Slack * float64(nEff))
	// Round the stripe up to whole blocks so addressing is uniform.
	sd.stripeFields = ceilDiv(sd.stripeFields, sd.fieldsPerBlock) * sd.fieldsPerBlock
	sd.graph = expander.NewFamily(cfg.Universe, sd.d, sd.stripeFields, cfg.Seed)

	switch cfg.Case {
	case CaseB:
		sd.arr = region{m: sd.m, disk0: 0, nDisks: sd.d}
	case CaseA:
		sd.arr = region{m: sd.m, disk0: sd.d, nDisks: sd.d}
		memb, err := newBasicAt(region{m: sd.m, disk0: 0, nDisks: sd.d}, BasicConfig{
			Capacity: nEff,
			SatWords: 1, // head pointer
			Universe: cfg.Universe,
			Seed:     cfg.Seed + 1,
		})
		if err != nil {
			return err
		}
		sd.memb = memb
	}
	return nil
}

// Len returns the number of keys stored.
func (sd *StaticDict) Len() int { return sd.n }

// Degree returns the expander degree d.
func (sd *StaticDict) Degree() int { return sd.d }

// Graph returns the retrieval array's expander.
func (sd *StaticDict) Graph() *expander.Family { return sd.graph }

// FieldsPerKey returns t = ⌈2d/3⌉, the number of unique-neighbor fields
// assigned to each key.
func (sd *StaticDict) FieldsPerKey() int { return sd.t }

// arrayBlocksPerDisk is the retrieval array's footprint per disk.
func (sd *StaticDict) arrayBlocksPerDisk() int {
	return ceilDiv(sd.stripeFields, sd.fieldsPerBlock)
}

// BlocksPerDisk returns the structure's per-disk space footprint
// (maximum over its regions).
func (sd *StaticDict) BlocksPerDisk() int {
	b := sd.arrayBlocksPerDisk()
	if sd.memb != nil && sd.memb.BlocksPerDisk() > b {
		b = sd.memb.BlocksPerDisk()
	}
	return b
}

// fieldAddr locates the block containing field j of stripe i.
func (sd *StaticDict) fieldAddr(i, j int) pdm.Addr {
	return sd.arr.addr(i, j/sd.fieldsPerBlock)
}

// fieldSlot returns the word offset of field j inside its block.
func (sd *StaticDict) fieldSlot(j int) int {
	return (j % sd.fieldsPerBlock) * sd.fieldWords
}

// Lookup returns a copy of x's satellite data and whether x is present.
// Cost: exactly one parallel I/O in both cases — CaseB reads the d
// blocks holding Γ(x)'s fields; CaseA additionally reads the d
// membership buckets in the same batch, on its other d disks.
func (sd *StaticDict) Lookup(x pdm.Word) ([]pdm.Word, bool) {
	defer sd.m.Span(obs.TagLookup)()
	sc := sd.scratch.get()
	defer sd.scratch.put(sc)
	d := sd.d
	sc.one = sc.one[:0]
	if sd.memb != nil {
		sc.one = sd.memb.probeAddrs(sc, x, sc.one)
	}
	membLen := len(sc.one)
	js := sc.ns[:0] // the membership probe is done with its neighbor ids
	for i := 0; i < d; i++ {
		js = append(js, sd.graph.StripeNeighbor(uint64(x), i))
		sc.one = append(sc.one, sd.fieldAddr(i, js[i]))
	}
	sc.ns = js
	flat := sd.m.BatchReadInto(&sc.buf, nil, nil, sc.one) // the single parallel I/O
	sc.fields = sc.fields[:0]
	for i, j := range js {
		slot := sd.fieldSlot(j)
		sc.fields = append(sc.fields, flat[membLen+i][slot:slot+sd.fieldWords])
	}
	switch sd.cfg.Case {
	case CaseB:
		return sd.decodeMajority(sc.fields)
	default:
		membSat, ok := sd.memb.lookupInBlocks(sc, x, flat[:membLen], sc.memb[:0])
		if !ok {
			return nil, false
		}
		return decodeChain(sd.fieldBits, sd.cfg.SatWords, sc.fields, int(membSat[0]))
	}
}

// Contains reports presence at the same single-I/O cost as Lookup.
func (sd *StaticDict) Contains(x pdm.Word) bool {
	_, ok := sd.Lookup(x)
	return ok
}

// decodeMajority implements the CaseB read path: if one identifier
// appears in more than half of the d fields, the data bits of those
// fields (in stripe order) are the satellite. The paper notes no key
// comparison is needed: two keys share at most εd < d/2 neighbors.
// Identifiers are ⌈lg(n+1)⌉-bit values packed at the head of each field
// (0 = empty).
func (sd *StaticDict) decodeMajority(fields [][]pdm.Word) ([]pdm.Word, bool) {
	ids := make([]uint64, len(fields))
	counts := make(map[uint64]int, sd.d)
	var majority uint64
	for i, f := range fields {
		id := bitpack.NewReader(f, sd.fieldBits).ReadBits(sd.idBits)
		ids[i] = id
		if id == 0 {
			continue // empty field
		}
		counts[id]++
		if counts[id]*2 > sd.d {
			majority = id
		}
	}
	if majority == 0 {
		return nil, false
	}
	need := 64 * sd.cfg.SatWords
	out := bitpack.NewWriter()
	for i, f := range fields {
		if ids[i] != majority {
			continue
		}
		r := bitpack.NewReader(f, sd.fieldBits)
		r.ReadBits(sd.idBits)
		take := sd.fieldBits - sd.idBits
		if take > need {
			take = need
		}
		for take > 0 {
			c := take
			if c > 64 {
				c = 64
			}
			out.WriteBits(r.ReadBits(c), c)
			take -= c
			need -= c
		}
		if need == 0 {
			break
		}
	}
	if need > 0 {
		return nil, false // malformed; treat as absent
	}
	sat := make([]pdm.Word, sd.cfg.SatWords)
	copy(sat, out.Words())
	return sat, true
}

// bitsFor returns the number of bits needed to represent values up to x.
func bitsFor(x int) int {
	b := 0
	for v := x; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// ---------------------------------------------------------------------
// Construction (Section 4.2, "Improving the construction"): a chain of
// external sorts and sequential passes over scratch stripes, so the
// measured I/O cost tracks the cost of sorting nd records.

type buildState struct {
	sd      *StaticDict
	scratch int // next free stripe
	asgVecs []*extsort.Vec
	heads   []pdm.Word // CaseA: interleaved key, headStripe pairs
}

func (bs *buildState) alloc(stripes int) int {
	s := bs.scratch
	bs.scratch += stripes
	return s
}

// stripesFor sizes a scratch region for a vector of the given word
// count, including the slack Sort needs for run alignment (every scratch
// vector here may be sorted in place).
func (sd *StaticDict) stripesFor(words int) int {
	sw := sd.m.D() * sd.m.B()
	s := ceilDiv(words, sw)
	return s + ceilDiv(s, sd.cfg.MemStripes) + 2
}

func (sd *StaticDict) construct(recs []bucket.Record) error {
	for _, r := range recs {
		if len(r.Sat) != sd.cfg.SatWords {
			return fmt.Errorf("core: record with %d satellite words, config says %d", len(r.Sat), sd.cfg.SatWords)
		}
		if uint64(r.Key) >= sd.cfg.Universe {
			return fmt.Errorf("core: key %d outside universe %d", r.Key, sd.cfg.Universe)
		}
	}
	if sd.n == 0 {
		return nil
	}

	bs := &buildState{sd: sd, scratch: sd.BlocksPerDisk()}

	// Initial input vector: records [key, id, sat...] sorted by key,
	// with id = rank (ids are the "identifiers of lg n bits" of CaseB;
	// CaseA simply ignores them).
	sorted := make([]bucket.Record, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Key < sorted[b].Key })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Key == sorted[i-1].Key {
			return fmt.Errorf("%w: key %d", ErrDuplicateKey, sorted[i].Key)
		}
	}
	inWidth := 2 + sd.cfg.SatWords
	inA := extsort.NewAppender(sd.m, bs.alloc(sd.stripesFor(sd.n*inWidth)), inWidth)
	rec := make([]pdm.Word, inWidth)
	for i, r := range sorted {
		rec[0] = r.Key
		rec[1] = pdm.Word(i)
		copy(rec[2:], r.Sat)
		inA.Append(rec)
	}
	in := inA.Vec()

	// Ping-pong zone for the survivor set, plus fixed zones for the
	// pair vectors and their sort scratch.
	zoneIn2 := bs.alloc(sd.stripesFor(sd.n * inWidth))
	zones := [2]int{in.Start, zoneIn2}
	pairStripes := sd.stripesFor(sd.n * sd.d * 2)
	zoneP := bs.alloc(pairStripes)
	zonePS := bs.alloc(pairStripes)
	zoneUP := bs.alloc(pairStripes)

	for round := 0; in.N > 0; round++ {
		if round >= sd.cfg.MaxRounds {
			return fmt.Errorf("%w: %d keys left after %d rounds", ErrExpansion, in.N, round)
		}
		next, err := sd.peelRound(bs, in, zones[(round+1)%2], zoneP, zonePS, zoneUP)
		if err != nil {
			return err
		}
		if next.N == in.N {
			return fmt.Errorf("%w: no key gained %d unique neighbors (n=%d)", ErrExpansion, sd.t, in.N)
		}
		in = next
	}

	if err := sd.fillArray(bs); err != nil {
		return err
	}
	if sd.memb != nil {
		// Bulk-build the membership sub-dictionary at sort cost instead
		// of 2 I/Os per key — this keeps the whole construction inside
		// Theorem 6's "proportional to sorting" budget.
		membRecs := make([]bucket.Record, 0, len(bs.heads)/2)
		for i := 0; i < len(bs.heads); i += 2 {
			membRecs = append(membRecs, bucket.Record{Key: bs.heads[i], Sat: []pdm.Word{bs.heads[i+1]}})
		}
		scratch := bs.alloc(2*sd.stripesFor(len(membRecs)*5) + 4)
		if err := sd.memb.BulkLoad(membRecs, scratch, sd.cfg.MemStripes); err != nil {
			return fmt.Errorf("core: membership build: %w", err)
		}
	}
	return nil
}

// peelRound performs one level of the recursion: compute unique
// neighbors of the current set, assign fields to the well-covered keys
// S′, and return the vector of survivors S \ S′.
func (sd *StaticDict) peelRound(bs *buildState, in *extsort.Vec, zoneNext, zoneP, zonePS, zoneUP int) (*extsort.Vec, error) {
	m := sd.m

	// Pairs (key, y) for every edge out of the working set, sorted by y
	// (word 1) to expose duplicate right vertices.
	pa := extsort.NewAppender(m, zoneP, 2)
	extsort.Scan(in, func(_ int, rec []pdm.Word) {
		for i := 0; i < sd.d; i++ {
			y := i*sd.stripeFields + sd.graph.StripeNeighbor(uint64(rec[0]), i)
			pa.Append([]pdm.Word{rec[0], pdm.Word(y)})
		}
	})
	pairs := pa.Vec()
	extsort.Sort(pairs, zonePS, sd.cfg.MemStripes, extsort.ByWord(1))

	// Keep only unique neighbor nodes: runs of length one in y.
	ua := extsort.NewAppender(m, zoneUP, 2)
	var prev [2]pdm.Word
	run := 0
	flush := func() {
		if run == 1 {
			ua.Append(prev[:])
		}
	}
	extsort.Scan(pairs, func(_ int, rec []pdm.Word) {
		if run > 0 && rec[1] == prev[1] {
			run++
			return
		}
		flush()
		prev[0], prev[1] = rec[0], rec[1]
		run = 1
	})
	flush()
	unique := ua.Vec()
	// Regroup by key (then y, so chains run in stripe order).
	extsort.Sort(unique, zonePS, sd.cfg.MemStripes, extsort.ByWord(0, 1))

	// Merge-join the unique pairs with the (key-sorted) working set.
	nextA := extsort.NewAppender(m, zoneNext, in.RecWords)
	asgWidth := 2 + sd.fieldWords
	asgA := extsort.NewAppender(m, bs.alloc(sd.stripesFor(in.N*sd.t*asgWidth)), asgWidth)
	ur := extsort.NewVecReader(unique)
	upRec, upOK := ur.Next()
	ys := make([]int, 0, sd.d)
	extsort.Scan(in, func(_ int, rec []pdm.Word) {
		key := rec[0]
		ys = ys[:0]
		for upOK && upRec[0] < key {
			upRec, upOK = ur.Next()
		}
		for upOK && upRec[0] == key {
			ys = append(ys, int(upRec[1]))
			upRec, upOK = ur.Next()
		}
		if len(ys) >= sd.t {
			sd.emitAssignments(bs, asgA, rec, ys[:sd.t])
		} else {
			nextA.Append(rec)
		}
	})
	bs.asgVecs = append(bs.asgVecs, asgA.Vec())
	return nextA.Vec(), nil
}

// emitAssignments writes the t field records for one key. Each
// assignment record is [sortKey, y, field content...], where sortKey
// orders fields block-row-major so the final fill writes whole block
// rows with one parallel I/O each.
func (sd *StaticDict) emitAssignments(bs *buildState, asgA *extsort.Appender, rec []pdm.Word, ys []int) {
	key, id, sat := rec[0], rec[1], rec[2:]
	out := make([]pdm.Word, 2+sd.fieldWords)
	stripeOf := func(y int) int { return y / sd.stripeFields }

	var chain [][]pdm.Word
	var satBits *bitpack.Reader
	switch sd.cfg.Case {
	case CaseA:
		stripes := make([]int, len(ys))
		for p, y := range ys {
			stripes[p] = stripeOf(y)
		}
		chain = encodeChain(sd.fieldBits, sd.fieldWords, stripes, sat)
		bs.heads = append(bs.heads, key, pdm.Word(stripes[0]))
	case CaseB:
		w := bitpack.NewWriter()
		for _, s := range sat {
			w.WriteBits(s, 64)
		}
		satBits = bitpack.NewReader(w.Words(), w.Len())
	}

	for p, y := range ys {
		j := y % sd.stripeFields
		blockRow := j / sd.fieldsPerBlock
		out[0] = pdm.Word(blockRow*sd.d + stripeOf(y))
		out[1] = pdm.Word(y)
		content := out[2:]
		for i := range content {
			content[i] = 0
		}
		switch sd.cfg.Case {
		case CaseB:
			w := bitpack.NewWriter()
			w.WriteBits(uint64(id)+1, sd.idBits)
			take := satBits.Remaining()
			if avail := sd.fieldBits - sd.idBits; take > avail {
				take = avail
			}
			for take > 0 {
				c := take
				if c > 64 {
					c = 64
				}
				w.WriteBits(satBits.ReadBits(c), c)
				take -= c
			}
			copy(content, w.Words())
		case CaseA:
			copy(content, chain[p])
		}
		asgA.Append(out)
	}
}

// fillArray concatenates the per-round assignment vectors, sorts them
// block-row-major, and writes the retrieval array with one batched
// (parallel) write per touched block row. Untouched fields stay zero,
// which is the empty encoding in both cases.
func (sd *StaticDict) fillArray(bs *buildState) error {
	asgWidth := 2 + sd.fieldWords
	total := 0
	for _, v := range bs.asgVecs {
		total += v.N
	}
	if total != sd.n*sd.t {
		return fmt.Errorf("core: assigned %d fields, want %d", total, sd.n*sd.t)
	}
	all := extsort.NewAppender(sd.m, bs.alloc(sd.stripesFor(total*asgWidth)), asgWidth)
	for _, v := range bs.asgVecs {
		extsort.Scan(v, func(_ int, rec []pdm.Word) { all.Append(rec) })
	}
	asg := all.Vec()
	extsort.Sort(asg, bs.alloc(sd.stripesFor(total*asgWidth)), sd.cfg.MemStripes, extsort.ByWord(0, 1))

	curRow := -1
	blocks := make(map[int][]pdm.Word) // stripe → block content
	flush := func() {
		if curRow < 0 || len(blocks) == 0 {
			return
		}
		stripes := make([]int, 0, len(blocks))
		for stripe := range blocks {
			stripes = append(stripes, stripe)
		}
		sort.Ints(stripes) // fix batch order: map order would leak into the trace
		writes := make([]pdm.BlockWrite, 0, len(blocks))
		for _, stripe := range stripes {
			writes = append(writes, pdm.BlockWrite{Addr: sd.arr.addr(stripe, curRow), Data: blocks[stripe]})
		}
		sd.m.BatchWrite(writes)
		for k := range blocks {
			delete(blocks, k)
		}
	}
	extsort.Scan(asg, func(_ int, rec []pdm.Word) {
		sortKey := int(rec[0])
		row, stripe := sortKey/sd.d, sortKey%sd.d
		if row != curRow {
			flush()
			curRow = row
		}
		blk := blocks[stripe]
		if blk == nil {
			blk = make([]pdm.Word, sd.m.B())
			blocks[stripe] = blk
		}
		j := int(rec[1]) % sd.stripeFields
		copy(blk[sd.fieldSlot(j):], rec[2:])
	})
	flush()
	return nil
}
