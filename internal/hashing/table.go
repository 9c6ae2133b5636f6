package hashing

import (
	"fmt"

	"pdmdict/internal/pdm"
)

// TableConfig parameterizes the bucketed striped hash table.
type TableConfig struct {
	// Capacity is the expected maximum number of keys (used for sizing
	// only; the table accepts more via overflow chains). Required.
	Capacity int
	// SatWords is the satellite size per key, in words.
	SatWords int
	// Buckets is the number of buckets; 0 sizes the table so the average
	// bucket is half full.
	Buckets int
	// BucketStripes is the number of stripes per bucket; 0 defaults to 1
	// (the usual configuration: one bucket = one striped block of B·D
	// words).
	BucketStripes int
	// Independence is the hash family's k; 0 defaults to 2⌈log₂ n⌉,
	// the O(log n)-wise independence the paper's Section 1.1 assumes.
	Independence int
	// Seed draws the hash function.
	Seed uint64
}

// Table is a linear-space hash table over striped blocks: bucket i is
// BucketStripes logical stripes, holding records plus an overflow
// pointer. Lookups cost 1 parallel I/O per bucket stripe plus one per
// overflow stripe traversed; with sizing in the whp regime overflow
// never materializes on random keys — but an adversarial key set drives
// every operation down one long chain, which is exactly the worst case
// the paper's deterministic structures eliminate (experiment E7-tails).
type Table struct {
	m       *pdm.Machine
	cfg     TableConfig
	h       *Poly
	recs    int // records per stripe payload
	n       int
	stripe0 int // stripe offset, for machines shared with other structures
	nextOv  int // next free overflow stripe

	// stats
	Overflows int // overflow stripes allocated
}

// Stripe layout: word0 = record count, word1 = overflow stripe + 1 (0 =
// none), then records of (1+SatWords) words.

// NewTable creates an empty table on m.
func NewTable(m *pdm.Machine, cfg TableConfig) (*Table, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("hashing: Capacity %d must be positive", cfg.Capacity)
	}
	if cfg.SatWords < 0 {
		return nil, fmt.Errorf("hashing: negative SatWords")
	}
	if cfg.BucketStripes == 0 {
		cfg.BucketStripes = 1
	}
	if cfg.BucketStripes < 1 {
		return nil, fmt.Errorf("hashing: BucketStripes %d below 1", cfg.BucketStripes)
	}
	sw := m.D() * m.B()
	recs := (sw - 2) / (1 + cfg.SatWords)
	if recs < 1 {
		return nil, fmt.Errorf("hashing: record of %d words does not fit a stripe of %d", 1+cfg.SatWords, sw)
	}
	if cfg.Buckets == 0 {
		perBucket := recs * cfg.BucketStripes
		cfg.Buckets = ceilDiv(2*cfg.Capacity, perBucket)
	}
	if cfg.Independence == 0 {
		cfg.Independence = 2 * log2ceil(cfg.Capacity)
	}
	return &Table{
		m:      m,
		cfg:    cfg,
		h:      NewPoly(cfg.Independence, cfg.Seed),
		recs:   recs,
		nextOv: cfg.Buckets * cfg.BucketStripes,
	}, nil
}

// Len returns the number of keys stored.
func (t *Table) Len() int { return t.n }

// Buckets returns the bucket count.
func (t *Table) Buckets() int { return t.cfg.Buckets }

// clampCount bounds a stripe's record count by its capacity, so corrupt
// headers are read as full stripes instead of crashing scans.
func (t *Table) clampCount(count int) int {
	if count < 0 || count > t.recs {
		return t.recs
	}
	return count
}

// BucketOf returns the bucket index x hashes to. Experiment E7-tails
// uses it to brute-force colliding key sets (workload.CollidingKeys).
func (t *Table) BucketOf(x pdm.Word) int {
	return t.h.Range(uint64(x), t.cfg.Buckets)
}

// bucketStripe returns the first stripe of bucket i.
func (t *Table) bucketStripe(i int) int { return t.stripe0 + i*t.cfg.BucketStripes }

func (t *Table) recordAt(stripe []pdm.Word, i int) []pdm.Word {
	off := 2 + i*(1+t.cfg.SatWords)
	return stripe[off : off+1+t.cfg.SatWords]
}

// findInChain walks a bucket's stripes and overflow chain looking for
// key. It returns the satellite if found. visit, when non-nil, sees
// every (stripeIndex, contents) pair read, in order — Insert reuses the
// walk to find free space.
func (t *Table) findInChain(key pdm.Word, visit func(stripe int, data []pdm.Word)) ([]pdm.Word, bool) {
	for s := 0; s < t.cfg.BucketStripes; s++ {
		stripe := t.bucketStripe(t.h.Range(uint64(key), t.cfg.Buckets)) + s
		for {
			data := t.m.ReadStripe(stripe)
			if visit != nil {
				visit(stripe, data)
			}
			count := t.clampCount(int(data[0]))
			for i := 0; i < count; i++ {
				rec := t.recordAt(data, i)
				if rec[0] == key {
					return rec[1:], true
				}
			}
			next := int(data[1])
			if next == 0 || next-1 >= t.nextOv || next-1 <= stripe {
				break // no overflow, or a corrupt pointer: stop the walk
			}
			stripe = next - 1
		}
	}
	return nil, false
}

// Lookup returns a copy of x's satellite and whether x is present. Cost:
// one parallel I/O per stripe in x's bucket chain (exactly one in the
// no-overflow regime).
func (t *Table) Lookup(x pdm.Word) ([]pdm.Word, bool) {
	defer t.m.Span(pdm.TagLookup).End()
	sat, ok := t.findInChain(x, nil)
	if !ok {
		return nil, false
	}
	out := make([]pdm.Word, t.cfg.SatWords)
	copy(out, sat)
	return out, true
}

// Contains reports presence at Lookup cost.
func (t *Table) Contains(x pdm.Word) bool {
	_, ok := t.Lookup(x)
	return ok
}

// Insert stores (x, sat), replacing any existing satellite. Cost: the
// chain walk plus one stripe write — 2 parallel I/Os in the no-overflow
// regime, more down a chain, plus one extra write when a new overflow
// stripe must be linked.
func (t *Table) Insert(x pdm.Word, sat []pdm.Word) error {
	if len(sat) != t.cfg.SatWords {
		return fmt.Errorf("hashing: satellite of %d words, config says %d", len(sat), t.cfg.SatWords)
	}
	defer t.m.Span(pdm.TagInsert).End()
	type seen struct {
		stripe int
		data   []pdm.Word
	}
	var walk []seen
	old, ok := t.findInChain(x, func(stripe int, data []pdm.Word) {
		walk = append(walk, seen{stripe, data})
	})
	if ok {
		copy(old, sat) // update in place; old aliases the last-read stripe
		last := walk[len(walk)-1]
		t.m.WriteStripe(last.stripe, last.data)
		return nil
	}
	// Append to the first stripe in the chain with room.
	for _, s := range walk {
		count := t.clampCount(int(s.data[0]))
		if count < t.recs {
			rec := t.recordAt(s.data, count)
			rec[0] = x
			copy(rec[1:], sat)
			s.data[0] = pdm.Word(count + 1)
			t.m.WriteStripe(s.stripe, s.data)
			t.n++
			return nil
		}
	}
	// Chain full: allocate an overflow stripe, link it from the tail.
	ov := t.nextOv
	t.nextOv++
	t.Overflows++
	tail := walk[len(walk)-1]
	tail.data[1] = pdm.Word(ov + 1)
	t.m.WriteStripe(tail.stripe, tail.data)
	fresh := make([]pdm.Word, 2+1+t.cfg.SatWords)
	fresh[0] = 1
	fresh[2] = x
	copy(fresh[3:], sat)
	t.m.WriteStripe(ov, fresh)
	t.n++
	return nil
}

// Delete removes x and reports whether it was present.
func (t *Table) Delete(x pdm.Word) bool {
	defer t.m.Span(pdm.TagDelete).End()
	var lastStripe int
	var lastData []pdm.Word
	sat, ok := t.findInChain(x, func(stripe int, data []pdm.Word) {
		lastStripe, lastData = stripe, data
	})
	if !ok {
		return false
	}
	// sat aliases lastData; locate the record index and swap-remove.
	count := t.clampCount(int(lastData[0]))
	for i := 0; i < count; i++ {
		rec := t.recordAt(lastData, i)
		if rec[0] == x {
			lastRec := t.recordAt(lastData, count-1)
			copy(rec, lastRec)
			for j := range lastRec {
				lastRec[j] = 0
			}
			lastData[0] = pdm.Word(count - 1)
			t.m.WriteStripe(lastStripe, lastData)
			t.n--
			return true
		}
	}
	_ = sat
	panic("hashing: findInChain found a key Delete cannot locate")
}

// DGMConfig returns the Table configuration simulating the dictionary of
// Dietzfelbinger et al. [7]: Θ(log n)-capacity buckets, so operations
// are O(1) I/Os with high probability and linear only in the adversarial
// worst case.
func DGMConfig(capacity, satWords int, seed uint64) TableConfig {
	return TableConfig{
		Capacity: capacity,
		SatWords: satWords,
		Seed:     seed,
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func log2ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}
