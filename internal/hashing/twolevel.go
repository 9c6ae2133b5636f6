package hashing

import (
	"fmt"

	"pdmdict/internal/pdm"
)

// TwoLevelConfig parameterizes the "[7] + trick" structure.
type TwoLevelConfig struct {
	// Capacity is the maximum number of keys. Required.
	Capacity int
	// SatWords is the satellite size per key, in words (bandwidth is the
	// full stripe: up to B·D minus headers).
	SatWords int
	// Alpha oversizes the primary array: (1+Alpha)·Capacity cells. The
	// fraction of keys pushed to the secondary dictionary — and hence
	// the ɛ in the 1+ɛ average — is about 1/(1+Alpha) per the birthday
	// estimate. 0 defaults to 4.
	Alpha float64
	// Independence is the hash family's k; 0 defaults to 2⌈log₂ n⌉.
	Independence int
	// Seed draws the hash functions.
	Seed uint64
}

// TwoLevel is the folklore structure the paper's Section 1.1 describes:
// a primary hash table keeping every key that does not collide, with
// collision-marked cells, backed by a [7]-style secondary dictionary for
// the colliding minority. Searches and updates cost 1+ɛ and 2+ɛ I/Os on
// average (with high probability over the hash functions), with full
// stripe bandwidth.
type TwoLevel struct {
	m         *pdm.Machine
	cfg       TwoLevelConfig
	h         *Poly
	primary   int // number of primary cells
	cellsPerS int // cells per stripe
	secondary *Table
	n         int

	// Demoted counts keys currently living in the secondary structure.
	Demoted int
}

// Cell layout within a stripe: cells of (2+SatWords) words, word0 being
// 0 = empty, 1 = occupied, 2 = collision marker, word1 the key.
const (
	cellEmpty  = 0
	cellTaken  = 1
	cellMarked = 2
)

// NewTwoLevel creates an empty structure on m. The secondary dictionary
// shares the machine, in stripes beyond the primary array.
func NewTwoLevel(m *pdm.Machine, cfg TwoLevelConfig) (*TwoLevel, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("hashing: Capacity %d must be positive", cfg.Capacity)
	}
	if cfg.SatWords < 0 {
		return nil, fmt.Errorf("hashing: negative SatWords")
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 4
	}
	if cfg.Alpha <= 0 {
		return nil, fmt.Errorf("hashing: Alpha %v must be positive", cfg.Alpha)
	}
	if cfg.Independence == 0 {
		cfg.Independence = 2 * log2ceil(cfg.Capacity)
	}
	cellWords := 2 + cfg.SatWords
	sw := m.D() * m.B()
	cellsPerS := sw / cellWords
	if cellsPerS < 1 {
		return nil, fmt.Errorf("hashing: cell of %d words does not fit a stripe of %d", cellWords, sw)
	}
	primary := int(float64(cfg.Capacity) * (1 + cfg.Alpha))
	tl := &TwoLevel{
		m:         m,
		cfg:       cfg,
		h:         NewPoly(cfg.Independence, cfg.Seed),
		primary:   primary,
		cellsPerS: cellsPerS,
	}
	primaryStripes := ceilDiv(primary, cellsPerS)
	sec, err := newTableAt(m, primaryStripes, TableConfig{
		Capacity: cfg.Capacity,
		SatWords: cfg.SatWords,
		Seed:     cfg.Seed + 0xb5297a4d2f769bd7,
	})
	if err != nil {
		return nil, err
	}
	tl.secondary = sec
	return tl, nil
}

// Len returns the number of keys stored.
func (tl *TwoLevel) Len() int { return tl.n }

// cellOf returns x's cell index, its stripe, and the word offset inside
// the stripe.
func (tl *TwoLevel) cellOf(x pdm.Word) (stripe, off int) {
	cell := tl.h.Range(uint64(x), tl.primary)
	return cell / tl.cellsPerS, (cell % tl.cellsPerS) * (2 + tl.cfg.SatWords)
}

// Lookup returns a copy of x's satellite and whether x is present.
// Cost: one parallel I/O for the primary cell; one more only when the
// cell carries a collision marker.
func (tl *TwoLevel) Lookup(x pdm.Word) ([]pdm.Word, bool) {
	defer tl.m.Span(pdm.TagLookup).End()
	stripe, off := tl.cellOf(x)
	data := tl.m.ReadStripe(stripe)
	cell := data[off : off+2+tl.cfg.SatWords]
	switch cell[0] {
	case cellTaken:
		if cell[1] == x {
			out := make([]pdm.Word, tl.cfg.SatWords)
			copy(out, cell[2:])
			return out, true
		}
		return nil, false
	case cellMarked:
		return tl.secondary.Lookup(x)
	default:
		return nil, false
	}
}

// Contains reports presence at Lookup cost.
func (tl *TwoLevel) Contains(x pdm.Word) bool {
	_, ok := tl.Lookup(x)
	return ok
}

// Insert stores (x, sat). A fresh key landing on an occupied cell marks
// the cell and demotes both occupants to the secondary dictionary.
func (tl *TwoLevel) Insert(x pdm.Word, sat []pdm.Word) error {
	if len(sat) != tl.cfg.SatWords {
		return fmt.Errorf("hashing: satellite of %d words, config says %d", len(sat), tl.cfg.SatWords)
	}
	defer tl.m.Span(pdm.TagInsert).End()
	stripe, off := tl.cellOf(x)
	data := tl.m.ReadStripe(stripe)
	cell := data[off : off+2+tl.cfg.SatWords]
	switch {
	case cell[0] == cellEmpty:
		cell[0] = cellTaken
		cell[1] = x
		copy(cell[2:], sat)
		tl.m.WriteStripe(stripe, data)
		tl.n++
	case cell[0] == cellTaken && cell[1] == x:
		copy(cell[2:], sat)
		tl.m.WriteStripe(stripe, data)
	case cell[0] == cellTaken:
		// Collision: demote the occupant, mark the cell, and send the
		// new key to the secondary as well.
		occupantKey := cell[1]
		occupantSat := append([]pdm.Word(nil), cell[2:]...)
		if err := tl.secondary.Insert(occupantKey, occupantSat); err != nil {
			return err
		}
		if err := tl.secondary.Insert(x, sat); err != nil {
			return err
		}
		cell[0] = cellMarked
		cell[1] = 0
		for i := range cell[2:] {
			cell[2+i] = 0
		}
		tl.m.WriteStripe(stripe, data)
		tl.Demoted += 2
		tl.n++
	default: // marked
		if !tl.secondary.Contains(x) {
			tl.n++
			tl.Demoted++
		}
		if err := tl.secondary.Insert(x, sat); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes x and reports whether it was present. Collision marks
// are left in place (the cell stays routed to the secondary), matching
// the structure's no-unmarking description in the paper.
func (tl *TwoLevel) Delete(x pdm.Word) bool {
	defer tl.m.Span(pdm.TagDelete).End()
	stripe, off := tl.cellOf(x)
	data := tl.m.ReadStripe(stripe)
	cell := data[off : off+2+tl.cfg.SatWords]
	switch {
	case cell[0] == cellTaken && cell[1] == x:
		for i := range cell {
			cell[i] = 0
		}
		tl.m.WriteStripe(stripe, data)
		tl.n--
		return true
	case cell[0] == cellMarked:
		if tl.secondary.Delete(x) {
			tl.n--
			tl.Demoted--
			return true
		}
	}
	return false
}

// newTableAt builds a Table whose stripes start at the given offset,
// letting it share a machine with the primary array.
func newTableAt(m *pdm.Machine, stripeOffset int, cfg TableConfig) (*Table, error) {
	t, err := NewTable(m, cfg)
	if err != nil {
		return nil, err
	}
	t.stripe0 = stripeOffset
	t.nextOv += stripeOffset
	return t, nil
}
