package pdm

import "fmt"

// Striping helpers.
//
// Striping treats the D disks as a single logical disk with block size
// B*D: logical block i consists of physical block i on every disk. Most
// one-disk external-memory algorithms gain a factor D this way (paper,
// Section 1), and several of the baseline dictionaries (the "hashing with
// no overflow" row of Figure 1) are defined directly on striped blocks.

// StripeAddrs returns the D physical addresses that make up logical
// striped block i.
func StripeAddrs(d int, block int) []Addr {
	addrs := make([]Addr, d)
	for i := range addrs {
		addrs[i] = Addr{Disk: i, Block: block}
	}
	return addrs
}

// ReadStripe reads logical striped block i (one parallel I/O) and returns
// its B*D words: disk 0's block first, then disk 1's, and so on.
func (m *Machine) ReadStripe(block int) []Word {
	blocks := m.BatchRead(StripeAddrs(m.cfg.D, block))
	out := make([]Word, 0, m.cfg.D*m.cfg.B)
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// WriteStripe writes logical striped block i (one parallel I/O). data
// holds up to B*D words, split across the disks in order; a short write
// leaves the remaining words unchanged.
func (m *Machine) WriteStripe(block int, data []Word) {
	if len(data) > m.cfg.D*m.cfg.B {
		panic("pdm: stripe write exceeds D*B words")
	}
	writes := make([]BlockWrite, 0, m.cfg.D)
	for disk := 0; disk < m.cfg.D && len(data) > 0; disk++ {
		n := m.cfg.B
		if n > len(data) {
			n = len(data)
		}
		writes = append(writes, BlockWrite{Addr: Addr{Disk: disk, Block: block}, Data: data[:n]})
		data = data[n:]
	}
	m.BatchWrite(writes)
}

// ReleaseStripes returns logical striped blocks [first, end) — block
// first through end−1 of every disk — to the never-written state: a
// later read sees zeros and a later write materializes the block afresh.
// It models freeing scratch space the model treats as transient, so it
// charges no I/O, emits no event and leaves Stats and the per-disk
// tallies alone. BlocksAllocated still counts the released slots: they
// stay inside the address span the disk has been grown to.
func (m *Machine) ReleaseStripes(first, end int) {
	if first < 0 {
		panic(fmt.Sprintf("pdm: release from negative stripe %d", first))
	}
	for d := range m.shards {
		s := &m.shards[d]
		s.mu.Lock()
		s.releaseLocked(first, end)
		s.mu.Unlock()
	}
}

// releaseLocked drops blocks [first, end) of the shard, clamped to its
// span, and gives them the all-zero checksum a never-written block has.
// Callers hold s.mu.
func (s *shard) releaseLocked(first, end int) {
	end = min(end, len(s.blocks))
	for b := first; b < end; b++ {
		s.blocks[b] = nil
		s.sums[b] = s.zeroSum
	}
}
