package hashing

import (
	"fmt"

	"pdmdict/internal/pdm"
)

// CuckooConfig parameterizes cuckoo hashing in the parallel disk model.
type CuckooConfig struct {
	// Capacity is the maximum number of keys. Required.
	Capacity int
	// SatWords is the satellite size per key, in words. The paper's
	// bandwidth analysis: each of the two tables occupies half the
	// disks, so a cell holds up to B·D/2 words and lookups still cost
	// one parallel I/O — bandwidth B·D/2.
	SatWords int
	// CellsPerTable sizes each table; 0 defaults to ⌈1.1·Capacity⌉
	// (total load factor ≈ 0.45, inside cuckoo hashing's threshold).
	CellsPerTable int
	// Independence is the hash family's k; 0 defaults to 2⌈log₂ n⌉.
	Independence int
	// MaxLoop bounds an eviction walk before a rehash; 0 defaults to
	// 6⌈log₂ n⌉ + 10.
	MaxLoop int
	// Seed draws the two hash functions.
	Seed uint64
}

// Cuckoo is cuckoo hashing [13] on a machine with an even number of
// disks: table 0 lives on the first half, table 1 on the second. A cell
// is one block row across a table's disks, holding a single record.
// Lookups read both candidate cells in one batch — one parallel I/O —
// and updates are amortized expected constant, with the occasional
// eviction walk or full rehash that Figure 1's "O(1) am. exp." entry
// summarizes (and that experiment E7-tails makes visible).
type Cuckoo struct {
	m   *pdm.Machine
	cfg CuckooConfig
	h   [2]*Poly
	n   int

	// Rehashes counts full-table rebuilds; Evictions counts individual
	// displacement steps.
	Rehashes  int
	Evictions int
}

// Cell layout: word0 = occupied flag, word1 = key, then satellite.

// NewCuckoo creates an empty structure on m (m.D() must be even).
func NewCuckoo(m *pdm.Machine, cfg CuckooConfig) (*Cuckoo, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("hashing: Capacity %d must be positive", cfg.Capacity)
	}
	if cfg.SatWords < 0 {
		return nil, fmt.Errorf("hashing: negative SatWords")
	}
	if m.D()%2 != 0 {
		return nil, fmt.Errorf("hashing: cuckoo needs an even disk count, got %d", m.D())
	}
	half := m.D() / 2
	if 2+cfg.SatWords > half*m.B() {
		return nil, fmt.Errorf("hashing: record of %d words exceeds the half-stripe cell of %d",
			2+cfg.SatWords, half*m.B())
	}
	if cfg.CellsPerTable == 0 {
		cfg.CellsPerTable = cfg.Capacity + ceilDiv(cfg.Capacity, 10)
	}
	if cfg.Independence == 0 {
		cfg.Independence = 2 * log2ceil(cfg.Capacity)
	}
	if cfg.MaxLoop == 0 {
		cfg.MaxLoop = 6*log2ceil(cfg.Capacity) + 10
	}
	c := &Cuckoo{m: m, cfg: cfg}
	c.deriveHashes(cfg.Seed)
	return c, nil
}

func (c *Cuckoo) deriveHashes(seed uint64) {
	c.h[0] = NewPoly(c.cfg.Independence, seed)
	c.h[1] = NewPoly(c.cfg.Independence, seed+0x6a09e667f3bcc909)
}

// Len returns the number of keys stored.
func (c *Cuckoo) Len() int { return c.n }

// cellAddrs returns the block addresses of cell i of table t.
func (c *Cuckoo) cellAddrs(table, cell int, dst []pdm.Addr) []pdm.Addr {
	half := c.m.D() / 2
	for d := 0; d < half; d++ {
		dst = append(dst, pdm.Addr{Disk: table*half + d, Block: cell})
	}
	return dst
}

// readBoth fetches x's two candidate cells in one parallel I/O.
func (c *Cuckoo) readBoth(x pdm.Word) (cells [2][]pdm.Word) {
	addrs := c.cellAddrs(0, c.h[0].Range(uint64(x), c.cfg.CellsPerTable), nil)
	addrs = c.cellAddrs(1, c.h[1].Range(uint64(x), c.cfg.CellsPerTable), addrs)
	flat := c.m.BatchRead(addrs)
	half := c.m.D() / 2
	for t := 0; t < 2; t++ {
		var cell []pdm.Word
		for _, blk := range flat[t*half : (t+1)*half] {
			cell = append(cell, blk...)
		}
		cells[t] = cell
	}
	return cells
}

// writeCell stores a cell's contents in one batched write.
func (c *Cuckoo) writeCell(table, cell int, data []pdm.Word) {
	half := c.m.D() / 2
	var writes []pdm.BlockWrite
	for d := 0; d < half; d++ {
		lo := d * c.m.B()
		hi := lo + c.m.B()
		if lo >= len(data) {
			break
		}
		if hi > len(data) {
			hi = len(data)
		}
		writes = append(writes, pdm.BlockWrite{
			Addr: pdm.Addr{Disk: table*half + d, Block: cell},
			Data: data[lo:hi],
		})
	}
	c.m.BatchWrite(writes)
}

// Lookup returns a copy of x's satellite and whether x is present.
// Cost: exactly one parallel I/O.
func (c *Cuckoo) Lookup(x pdm.Word) ([]pdm.Word, bool) {
	defer c.m.Span(pdm.TagLookup).End()
	cells := c.readBoth(x)
	for _, cell := range cells {
		if cell[0] == 1 && cell[1] == x {
			out := make([]pdm.Word, c.cfg.SatWords)
			copy(out, cell[2:2+c.cfg.SatWords])
			return out, true
		}
	}
	return nil, false
}

// Contains reports presence at Lookup cost.
func (c *Cuckoo) Contains(x pdm.Word) bool {
	_, ok := c.Lookup(x)
	return ok
}

// Insert stores (x, sat), evicting along the cuckoo path as needed and
// rehashing with fresh functions if the walk exceeds MaxLoop.
func (c *Cuckoo) Insert(x pdm.Word, sat []pdm.Word) error {
	if len(sat) != c.cfg.SatWords {
		return fmt.Errorf("hashing: satellite of %d words, config says %d", len(sat), c.cfg.SatWords)
	}
	defer c.m.Span(pdm.TagInsert).End()
	cells := c.readBoth(x)
	// Update in place.
	for t, cell := range cells {
		if cell[0] == 1 && cell[1] == x {
			copy(cell[2:], sat)
			c.writeCell(t, c.h[t].Range(uint64(x), c.cfg.CellsPerTable), cell)
			return nil
		}
	}
	if c.n >= c.cfg.Capacity {
		return ErrCuckooFull
	}
	// Empty candidate?
	for t, cell := range cells {
		if cell[0] == 0 {
			c.storeRecord(t, c.h[t].Range(uint64(x), c.cfg.CellsPerTable), cell, x, sat)
			c.n++
			return nil
		}
	}
	// Eviction walk, starting by displacing table 0's occupant.
	if err := c.evict(x, sat, cells[0], 0); err != nil {
		return err
	}
	c.n++
	return nil
}

func (c *Cuckoo) storeRecord(table, cell int, data []pdm.Word, key pdm.Word, sat []pdm.Word) {
	data[0] = 1
	data[1] = key
	copy(data[2:], sat)
	for i := 2 + len(sat); i < len(data); i++ {
		data[i] = 0
	}
	c.writeCell(table, cell, data)
}

// evict places (x, sat) in the given table-`table` cell (whose current
// contents are in data), then re-places the displaced record, walking
// between the tables.
func (c *Cuckoo) evict(x pdm.Word, sat []pdm.Word, data []pdm.Word, table int) error {
	key, kSat := x, append([]pdm.Word(nil), sat...)
	for step := 0; step < c.cfg.MaxLoop; step++ {
		cell := c.h[table].Range(uint64(key), c.cfg.CellsPerTable)
		victimKey := data[1]
		victimSat := append([]pdm.Word(nil), data[2:2+c.cfg.SatWords]...)
		occupied := data[0] == 1
		c.storeRecord(table, cell, data, key, kSat)
		if !occupied {
			return nil
		}
		c.Evictions++
		key, kSat = victimKey, victimSat
		table = 1 - table
		// Read the victim's cell in the other table (one parallel I/O —
		// only half the disks, but still a single step).
		addrs := c.cellAddrs(table, c.h[table].Range(uint64(key), c.cfg.CellsPerTable), nil)
		flat := c.m.BatchRead(addrs)
		data = nil
		for _, blk := range flat {
			data = append(data, blk...)
		}
	}
	// Walk too long: rehash everything with fresh functions, then place
	// the pending record.
	return c.rehash(key, kSat)
}

// ErrCuckooFull is returned when an insert would exceed Capacity or a
// rehash cannot settle.
var ErrCuckooFull = errFull{}

type errFull struct{}

func (errFull) Error() string { return "hashing: cuckoo table full" }

// rehash collects every record, draws fresh hash functions, and
// reinserts — the amortized-expected-constant tail of [13].
func (c *Cuckoo) rehash(pendingKey pdm.Word, pendingSat []pdm.Word) error {
	defer c.m.Span(pdm.TagRehash).End()
	c.Rehashes++
	if c.Rehashes > 64 {
		return ErrCuckooFull
	}
	type rec struct {
		key pdm.Word
		sat []pdm.Word
	}
	var recs []rec
	half := c.m.D() / 2
	for t := 0; t < 2; t++ {
		for cell := 0; cell < c.cfg.CellsPerTable; cell++ {
			flat := c.m.BatchRead(c.cellAddrs(t, cell, nil))
			var data []pdm.Word
			for _, blk := range flat {
				data = append(data, blk...)
			}
			if data[0] == 1 {
				recs = append(recs, rec{data[1], append([]pdm.Word(nil), data[2:2+c.cfg.SatWords]...)})
			}
			// Clear while we are here.
			zero := make([]pdm.Word, half*c.m.B())
			c.writeCell(t, cell, zero)
		}
	}
	recs = append(recs, rec{pendingKey, pendingSat})
	seed := c.cfg.Seed + uint64(c.Rehashes)*0x9e3779b97f4a7c15
	c.deriveHashes(seed)
	n := c.n
	c.n = 0
	for _, r := range recs {
		if err := c.insertNoCount(r.key, r.sat); err != nil {
			return err
		}
	}
	c.n = n // the pending record's count is added by the caller
	return nil
}

// insertNoCount re-places a record during rehash without touching n.
func (c *Cuckoo) insertNoCount(x pdm.Word, sat []pdm.Word) error {
	cells := c.readBoth(x)
	for t, cell := range cells {
		if cell[0] == 0 {
			c.storeRecord(t, c.h[t].Range(uint64(x), c.cfg.CellsPerTable), cell, x, sat)
			return nil
		}
	}
	return c.evict(x, sat, cells[0], 0)
}

// Delete removes x and reports whether it was present.
func (c *Cuckoo) Delete(x pdm.Word) bool {
	defer c.m.Span(pdm.TagDelete).End()
	cells := c.readBoth(x)
	for t, cell := range cells {
		if cell[0] == 1 && cell[1] == x {
			zero := make([]pdm.Word, len(cell))
			c.writeCell(t, c.h[t].Range(uint64(x), c.cfg.CellsPerTable), zero)
			c.n--
			return true
		}
	}
	return false
}
