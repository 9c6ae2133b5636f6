package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"pdmdict/internal/bitpack"
	"pdmdict/internal/bucket"
	"pdmdict/internal/expander"
	"pdmdict/internal/extsort"
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
// proves absence. The structure is immutable after construction, and
// looks up through the chained-level cascade of Section 4.3
// (cascade.go): its retrieval array is the cascade's one level, which
// the first probe reads, with CaseA's membership table in front of it
// and CaseB's identifier fields decoding by majority. Its fields are
// packed at their bit width, as the cascade's are: CaseA's chain fields
// at chainFieldBits, CaseB's at the identifier plus a ⌈σ/t⌉-bit share of
// the satellite. DynamicDict and OneProbeDict are the mutable structures
// on the same body.
type StaticDict struct {
	cfg          StaticConfig
	n            int
	stripeFields int
	graph        *expander.Family // the retrieval array's expander
	arr          region           // the retrieval array
	c            cascade          // the lookup body; its update bodies are never called

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
// sub-dictionary), and m.D() must be even and d at most 255.
func BuildStatic(m *pdm.Machine, cfg StaticConfig, recs []bucket.Record) (*StaticDict, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	sd := &StaticDict{cfg: cfg, n: len(recs)}
	if err := sd.layout(m); err != nil {
		return nil, err
	}
	defer m.Span(pdm.TagBuild).End()
	start := m.Stats()
	if err := sd.construct(recs); err != nil {
		return nil, err
	}
	sd.ConstructionIOs = m.Stats().Sub(start)
	return sd, nil
}

// layout fixes the degree and field geometry on m and creates the
// cascade the lookups run.
func (sd *StaticDict) layout(m *pdm.Machine) error {
	cfg := sd.cfg
	d := m.D()
	if cfg.Case == CaseA {
		if m.D()%2 != 0 {
			return fmt.Errorf("core: CaseA needs an even disk count, got %d", m.D())
		}
		d = m.D() / 2
		// The membership record holds the chain head as the cascade's
		// head | level<<8, level 0.
		if err := checkHeadRange(d); err != nil {
			return err
		}
	}
	if d < 3 {
		return fmt.Errorf("core: degree %d too small (need d ≥ 3)", d)
	}
	t := ceilDiv(2*d, 3)
	sigma := 64 * cfg.SatWords
	var fieldBits, idBits int
	switch cfg.Case {
	case CaseB:
		// Field = identifier of ⌈lg(n+1)⌉ bits (the paper's "identifiers
		// of lg n bits, unique for each element of S"; value id+1 so an
		// all-zero field reads as empty) followed by this field's share
		// of the satellite bits.
		idBits = bits.Len(uint(sd.n + 1))
		fieldBits = idBits + ceilDiv(sigma, t)
	case CaseA:
		// Per chain: t used bits + unary codes totalling ≤ (d−1)+t bits,
		// leaving t·fieldBits − (2t+d−1) data bits; that must cover σ.
		fieldBits = chainFieldBits(sigma, t, d)
	default:
		return fmt.Errorf("core: unknown static case %v", cfg.Case)
	}
	fieldsPerBlock, unit, err := fieldGeometry(fieldBits, m.B())
	if err != nil {
		return err
	}

	nEff := max(sd.n, 1)
	// v = Slack·n·d fields total, i.e. Slack·n per stripe, rounded up to
	// a whole range unit, as the cascade rounds its levels.
	sd.stripeFields = ceilDiv(int(cfg.Slack*float64(nEff)), unit) * unit
	sd.graph = expander.NewFamily(cfg.Universe, d, sd.stripeFields, cfg.Seed)
	sd.arr = region{m: m, disk0: 0, nDisks: d}
	var memb *BasicDict
	if cfg.Case == CaseA {
		sd.arr.disk0 = d
		memb, err = newBasicAt(region{m: m, disk0: 0, nDisks: d}, BasicConfig{
			Capacity: nEff,
			SatWords: 1, // head pointer
			Universe: cfg.Universe,
			Seed:     cfg.Seed + 1,
		})
		if err != nil {
			return err
		}
	}
	sd.c = cascade{
		m: m, d: d, t: t, capacity: nEff, satWords: cfg.SatWords, universe: cfg.Universe,
		memb:      memb,
		levels:    []level{{graph: sd.graph, reg: sd.arr, blocks: ceilDiv(sd.stripeFields, fieldsPerBlock), count: sd.n}},
		pre:       1,
		n:         sd.n,
		fieldBits: fieldBits, fieldsPerBlock: fieldsPerBlock, idBits: idBits,
	}
	return nil
}

// Len returns the number of keys stored.
func (sd *StaticDict) Len() int { return sd.n }

// Degree returns the expander degree d.
func (sd *StaticDict) Degree() int { return sd.c.d }

// Graph returns the retrieval array's expander.
func (sd *StaticDict) Graph() *expander.Family { return sd.graph }

// BlocksPerDisk returns the structure's per-disk space footprint
// (maximum over its regions).
func (sd *StaticDict) BlocksPerDisk() int { return sd.c.BlocksPerDisk() }

// Lookup returns a copy of x's satellite data and whether x is present.
// Cost: exactly one parallel I/O in both cases — CaseB reads the d
// blocks holding Γ(x)'s fields; CaseA additionally reads the d
// membership buckets in the same batch, on its other d disks.
func (sd *StaticDict) Lookup(x pdm.Word) ([]pdm.Word, bool) { return sd.c.LookupOp(nil, x) }

// Contains reports presence at the same single-I/O cost as Lookup.
func (sd *StaticDict) Contains(x pdm.Word) bool { return sd.c.Contains(x) }

// ---------------------------------------------------------------------
// Construction (Section 4.2, "Improving the construction"): a chain of
// external sorts and sequential passes over scratch stripes, so the
// measured I/O cost tracks the cost of sorting nd records. The scratch
// zones start at the structure's BlocksPerDisk() and are transient:
// construct releases them all when it returns (CaseA's membership
// BulkLoad scratch among them), so a built dictionary holds only its
// own blocks.

type buildState struct {
	sd      *StaticDict
	scratch int // next free stripe
	asgVecs []*extsort.Vec
	heads   []pdm.Word // CaseA: interleaved key, headStripe pairs

	// One key's assignment records, t of them back to back, the field
	// table indexed by stripe that points into them, and the key's
	// stripes.
	asg     []pdm.Word
	fields  []field
	stripes []int
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
	sw := sd.c.m.D() * sd.c.m.B()
	s := ceilDiv(words, sw)
	return s + ceilDiv(s, sd.cfg.MemStripes) + 2
}

// construct writes the dictionary's blocks for recs at sorting cost. On
// return it releases its scratch stripes and compacts the machine, so
// each block holds only its used words in host memory.
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

	first := sd.BlocksPerDisk()
	bs := &buildState{sd: sd, scratch: first}
	defer func() {
		sd.c.m.ReleaseStripes(first, bs.scratch)
		sd.c.m.Compact()
	}()

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
	inA := extsort.NewAppender(sd.c.m, bs.alloc(sd.stripesFor(sd.n*inWidth)), inWidth)
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
	pairStripes := sd.stripesFor(sd.n * sd.c.d * 2)
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
			return fmt.Errorf("%w: no key gained %d unique neighbors (n=%d)", ErrExpansion, sd.c.t, in.N)
		}
		in = next
	}

	if err := sd.fillArray(bs); err != nil {
		return err
	}
	if sd.c.memb != nil {
		// Bulk-build the membership sub-dictionary at sort cost instead
		// of 2 I/Os per key — this keeps the whole construction inside
		// Theorem 6's "proportional to sorting" budget.
		membRecs := make([]bucket.Record, 0, len(bs.heads)/2)
		for i := 0; i < len(bs.heads); i += 2 {
			membRecs = append(membRecs, bucket.Record{Key: bs.heads[i], Sat: []pdm.Word{bs.heads[i+1]}})
		}
		scratch := bs.alloc(2*sd.stripesFor(len(membRecs)*5) + 4)
		if err := sd.c.memb.BulkLoad(membRecs, scratch, sd.cfg.MemStripes); err != nil {
			return fmt.Errorf("core: membership build: %w", err)
		}
	}
	return nil
}

// peelRound performs one level of the recursion: compute unique
// neighbors of the current set, assign fields to the well-covered keys
// S′, and return the vector of survivors S \ S′.
func (sd *StaticDict) peelRound(bs *buildState, in *extsort.Vec, zoneNext, zoneP, zonePS, zoneUP int) (*extsort.Vec, error) {
	m := sd.c.m

	// Pairs (key, y) for every edge out of the working set, sorted by y
	// (word 1) to expose duplicate right vertices.
	pa := extsort.NewAppender(m, zoneP, 2)
	extsort.Scan(in, func(_ int, rec []pdm.Word) {
		for i := 0; i < sd.c.d; i++ {
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
	asgWidth := sd.asgWidth()
	asgA := extsort.NewAppender(m, bs.alloc(sd.stripesFor(in.N*sd.c.t*asgWidth)), asgWidth)
	ur := extsort.NewVecReader(unique)
	upRec, upOK := ur.Next()
	ys := make([]int, 0, sd.c.d)
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
		if len(ys) >= sd.c.t {
			sd.emitAssignments(bs, asgA, rec, ys[:sd.c.t])
		} else {
			nextA.Append(rec)
		}
	})
	bs.asgVecs = append(bs.asgVecs, asgA.Vec())
	return nextA.Vec(), nil
}

// asgWidth is the word width of an assignment record: a sort key, the
// field's node y, and the field's bits from bit 0 of the next word.
func (sd *StaticDict) asgWidth() int { return 2 + ceilDiv(sd.c.fieldBits, 64) }

// emitAssignments writes the t field records for one key. Each
// assignment record is [sortKey, y, field content...], where sortKey
// orders fields block-row-major so the final fill writes whole block
// rows with one parallel I/O each. The records are built in the build
// state's buffer, each field's content encoded straight into its record.
func (sd *StaticDict) emitAssignments(bs *buildState, asgA *extsort.Appender, rec []pdm.Word, ys []int) {
	key, id, sat := rec[0], rec[1], rec[2:]
	width := sd.asgWidth()
	if bs.fields == nil {
		bs.asg = make([]pdm.Word, sd.c.t*width)
		bs.fields = make([]field, sd.c.d)
	}
	bs.stripes = bs.stripes[:0]
	for p, y := range ys {
		stripe, j := y/sd.stripeFields, y%sd.stripeFields
		out := bs.asg[p*width : (p+1)*width : (p+1)*width]
		out[0] = pdm.Word(j/sd.c.fieldsPerBlock*sd.c.d + stripe)
		out[1] = pdm.Word(y)
		bs.fields[stripe] = field{blk: out[2:]}
		bs.stripes = append(bs.stripes, stripe)
	}

	switch sd.cfg.Case {
	case CaseA:
		encodeChain(sd.c.fieldBits, bs.stripes, sat, bs.fields)
		bs.heads = append(bs.heads, key, pdm.Word(bs.stripes[0]))
	case CaseB:
		satBits := bitpack.NewReader(sat, 64*len(sat))
		for _, s := range bs.stripes {
			f := bs.fields[s]
			f.clear(sd.c.fieldBits)
			w := bitpack.NewWriterAt(f.blk, f.off)
			w.WriteBits(uint64(id)+1, sd.c.idBits)
			copyBits(w, satBits, min(satBits.Remaining(), sd.c.fieldBits-sd.c.idBits))
		}
	}
	for p := range ys {
		asgA.Append(bs.asg[p*width : (p+1)*width])
	}
}

// fillArray concatenates the per-round assignment vectors, sorts them
// block-row-major, and writes the retrieval array with one batched
// (parallel) write per touched block row. Untouched fields stay zero,
// which is the empty encoding in both cases.
func (sd *StaticDict) fillArray(bs *buildState) error {
	asgWidth := sd.asgWidth()
	total := 0
	for _, v := range bs.asgVecs {
		total += v.N
	}
	if total != sd.n*sd.c.t {
		return fmt.Errorf("core: assigned %d fields, want %d", total, sd.n*sd.c.t)
	}
	all := extsort.NewAppender(sd.c.m, bs.alloc(sd.stripesFor(total*asgWidth)), asgWidth)
	for _, v := range bs.asgVecs {
		extsort.Scan(v, func(_ int, rec []pdm.Word) { all.Append(rec) })
		v.Release()
	}
	asg := all.Vec()
	extsort.Sort(asg, bs.alloc(sd.stripesFor(total*asgWidth)), sd.cfg.MemStripes, extsort.ByWord(0, 1))

	// One block per stripe holds the current row; every row reuses the
	// blocks and the write list, and writes its touched stripes in
	// stripe order.
	curRow := -1
	blocks := make([][]pdm.Word, sd.c.d) // stripe → its block of the current row
	for stripe := range blocks {
		blocks[stripe] = make([]pdm.Word, sd.c.m.B())
	}
	inRow := make([]bool, sd.c.d) // the stripe's block is in the current row
	writes := make([]pdm.BlockWrite, 0, sd.c.d)
	flush := func() {
		writes = writes[:0]
		for stripe, blk := range blocks {
			if inRow[stripe] {
				writes = append(writes, pdm.BlockWrite{Addr: sd.arr.addr(stripe, curRow), Data: blk})
				inRow[stripe] = false
			}
		}
		if len(writes) > 0 {
			sd.c.m.BatchWrite(writes)
		}
	}
	extsort.Scan(asg, func(_ int, rec []pdm.Word) {
		sortKey := int(rec[0])
		row, stripe := sortKey/sd.c.d, sortKey%sd.c.d
		if row != curRow {
			flush()
			curRow = row
		}
		blk := blocks[stripe]
		if !inRow[stripe] {
			clear(blk)
			inRow[stripe] = true
		}
		j := int(rec[1]) % sd.stripeFields
		w := bitpack.NewWriterAt(blk, (j%sd.c.fieldsPerBlock)*sd.c.fieldBits)
		copyBits(w, bitpack.NewReader(rec[2:], sd.c.fieldBits), sd.c.fieldBits)
	})
	flush()
	return nil
}
