package pdm

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{D: 1, B: 1}, true},
		{Config{D: 8, B: 64}, true},
		{Config{D: 0, B: 4}, false},
		{Config{D: 4, B: 0}, false},
		{Config{D: -1, B: 4}, false},
		{Config{D: 4, B: -2}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

func TestNewMachinePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMachine with D=0 did not panic")
		}
	}()
	NewMachine(Config{D: 0, B: 4})
}

func TestReadUnwrittenBlockIsZero(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 4})
	blk := m.ReadBlock(Addr{Disk: 1, Block: 7})
	if len(blk) != 4 {
		t.Fatalf("block length = %d, want 4", len(blk))
	}
	for i, w := range blk {
		if w != 0 {
			t.Errorf("unwritten block word %d = %d, want 0", i, w)
		}
	}
}

func TestWriteThenRead(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 3})
	m.WriteBlock(Addr{Disk: 2, Block: 5}, []Word{10, 20, 30})
	got := m.ReadBlock(Addr{Disk: 2, Block: 5})
	want := []Word{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPartialWriteLeavesTail(t *testing.T) {
	m := NewMachine(Config{D: 1, B: 4})
	a := Addr{Disk: 0, Block: 0}
	m.WriteBlock(a, []Word{1, 2, 3, 4})
	m.WriteBlock(a, []Word{9})
	got := m.ReadBlock(a)
	want := []Word{9, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBatchReadCostOneDiskEach(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 2})
	addrs := []Addr{{0, 0}, {1, 5}, {2, 3}, {3, 9}}
	m.BatchRead(addrs)
	s := m.Stats()
	if s.ParallelIOs != 1 {
		t.Errorf("ParallelIOs = %d, want 1 for one block per disk", s.ParallelIOs)
	}
	if s.BlockReads != 4 {
		t.Errorf("BlockReads = %d, want 4", s.BlockReads)
	}
	if s.MaxBatch != 1 {
		t.Errorf("MaxBatch = %d, want 1", s.MaxBatch)
	}
}

func TestBatchReadCostConflicts(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 2})
	// Three requests to disk 1, one to disk 0: depth 3.
	addrs := []Addr{{1, 0}, {1, 1}, {1, 2}, {0, 0}}
	m.BatchRead(addrs)
	if got := m.Stats().ParallelIOs; got != 3 {
		t.Errorf("ParallelIOs = %d, want 3 under per-disk conflicts", got)
	}
}

func TestDiskHeadModelIgnoresPlacement(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 2, Model: DiskHead})
	// Four blocks on the same disk: still one parallel I/O with 4 heads.
	addrs := []Addr{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	m.BatchRead(addrs)
	if got := m.Stats().ParallelIOs; got != 1 {
		t.Errorf("disk-head ParallelIOs = %d, want 1", got)
	}
	// Five blocks need two steps.
	m.ResetStats()
	m.BatchRead(append(addrs, Addr{1, 4}))
	if got := m.Stats().ParallelIOs; got != 2 {
		t.Errorf("disk-head ParallelIOs = %d, want 2 for 5 blocks", got)
	}
}

func TestEmptyBatchIsFree(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 2})
	m.BatchRead(nil)
	m.BatchWrite(nil)
	if got := m.Stats().ParallelIOs; got != 0 {
		t.Errorf("empty batches cost %d parallel I/Os, want 0", got)
	}
}

func TestStatsSub(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 2})
	m.WriteBlock(Addr{0, 0}, []Word{1})
	before := m.Stats()
	m.ReadBlock(Addr{0, 0})
	m.ReadBlock(Addr{1, 0})
	delta := m.Stats().Sub(before)
	if delta.ParallelIOs != 2 || delta.BlockReads != 2 || delta.BlockWrites != 0 {
		t.Errorf("delta = %+v, want 2 parallel I/Os, 2 reads, 0 writes", delta)
	}
}

func TestResetStats(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 2})
	m.WriteBlock(Addr{0, 0}, []Word{1})
	m.ResetStats()
	if s := m.Stats(); s.ParallelIOs != 0 || s.BlockWrites != 0 {
		t.Errorf("stats after reset = %+v, want zeros", s)
	}
	// Data must survive a stats reset.
	if got := m.ReadBlock(Addr{0, 0})[0]; got != 1 {
		t.Errorf("data after reset = %d, want 1", got)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	m := NewMachine(Config{D: 1, B: 2})
	a := Addr{0, 0}
	m.WriteBlock(a, []Word{7, 8})
	blk := m.ReadBlock(a)
	blk[0] = 99
	if got := m.ReadBlock(a)[0]; got != 7 {
		t.Errorf("mutating a returned block changed the disk: got %d, want 7", got)
	}
}

func TestWriteTooLargePanics(t *testing.T) {
	m := NewMachine(Config{D: 1, B: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("oversized write did not panic")
		}
	}()
	m.WriteBlock(Addr{0, 0}, []Word{1, 2, 3})
}

func TestBadAddrPanics(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 2})
	for _, a := range []Addr{{Disk: -1, Block: 0}, {Disk: 2, Block: 0}, {Disk: 0, Block: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("address %v did not panic", a)
				}
			}()
			m.ReadBlock(a)
		}()
	}
}

func TestStripeRoundTrip(t *testing.T) {
	m := NewMachine(Config{D: 3, B: 2})
	data := []Word{1, 2, 3, 4, 5, 6}
	m.WriteStripe(4, data)
	if got := m.Stats().ParallelIOs; got != 1 {
		t.Errorf("stripe write cost %d parallel I/Os, want 1", got)
	}
	got := m.ReadStripe(4)
	for i := range data {
		if got[i] != data[i] {
			t.Errorf("stripe word %d = %d, want %d", i, got[i], data[i])
		}
	}
	if got := m.Stats().ParallelIOs; got != 2 {
		t.Errorf("total parallel I/Os = %d, want 2", got)
	}
}

func TestStripeShortWrite(t *testing.T) {
	m := NewMachine(Config{D: 3, B: 2})
	m.WriteStripe(0, []Word{1, 2, 3}) // fills disk 0 fully, disk 1 partially
	got := m.ReadStripe(0)
	want := []Word{1, 2, 3, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stripe word %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestStripeOversizePanics(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("oversized stripe write did not panic")
		}
	}()
	m.WriteStripe(0, make([]Word, 5))
}

// ReleaseStripes returns a stripe range to the never-written state at
// no cost: a released block is dropped from storage and from snapshots,
// reads as zeros, verifies even if it was corrupt, and is materialized
// again by a later write. The address span, and so BlocksAllocated, is
// unchanged, and blocks outside the range are untouched.
func TestReleaseStripes(t *testing.T) {
	m := NewMachine(Config{D: 3, B: 2})
	for s := 0; s < 4; s++ {
		m.WriteStripe(s, []Word{Word(10*s + 1), 2, 3, 4, 5, 6})
	}
	m.FlipBit(Addr{Disk: 1, Block: 2}, 0)
	held := func(a Addr) bool {
		s := &m.shards[a.Disk]
		s.mu.Lock()
		defer s.mu.Unlock()
		return a.Block < len(s.blocks) && s.blocks[a.Block] != nil
	}
	var snap bytes.Buffer
	if err := m.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	before, span := m.Stats(), m.BlocksAllocated()
	h := &countingHook{}
	m.SetHook(h)
	m.ReleaseStripes(1, 3)
	m.ReleaseStripes(5, 9) // past the span: nothing to release
	m.SetHook(nil)
	if m.Stats() != before || h.n.Load() != 0 {
		t.Errorf("release charged %+v and emitted %d events", m.Stats().Sub(before), h.n.Load())
	}
	if got := m.BlocksAllocated(); !slices.Equal(got, span) {
		t.Errorf("BlocksAllocated after release = %v, want %v", got, span)
	}
	for s := 0; s < 4; s++ {
		released := s == 1 || s == 2
		for d := 0; d < 3; d++ {
			a := Addr{Disk: d, Block: s}
			if held(a) == released {
				t.Errorf("block %v materialized = %v after releasing stripes [1,3)", a, !released)
			}
		}
	}
	if bad := m.VerifyChecksums(); len(bad) != 0 {
		t.Errorf("VerifyChecksums after release = %v, want none", bad)
	}
	var after bytes.Buffer
	if err := m.WriteSnapshot(&after); err != nil {
		t.Fatal(err)
	}
	if want := snap.Len() - 6*8*m.B(); after.Len() != want {
		t.Errorf("snapshot is %d bytes after releasing 6 blocks, want %d", after.Len(), want)
	}
	if got := m.ReadStripe(1); slices.ContainsFunc(got, func(w Word) bool { return w != 0 }) {
		t.Errorf("released stripe reads %v", got)
	}
	if got := m.ReadStripe(3); got[0] != 31 {
		t.Errorf("stripe 3 reads %v after releasing [1,3)", got)
	}
	if bad, err := m.TryBatchReadOp(nil, StripeAddrs(3, 2)); err != nil {
		t.Errorf("fault-aware read of a released stripe: %v (%v)", err, bad)
	}
	m.WriteBlock(Addr{Disk: 2, Block: 1}, []Word{7})
	if !held(Addr{Disk: 2, Block: 1}) || m.Peek(Addr{Disk: 2, Block: 1})[0] != 7 {
		t.Error("a write after release did not materialize the block")
	}
	if bad := m.VerifyChecksums(); len(bad) != 0 {
		t.Errorf("VerifyChecksums after rewrite = %v, want none", bad)
	}
}

func TestBlocksAllocated(t *testing.T) {
	m := NewMachine(Config{D: 3, B: 2})
	m.WriteBlock(Addr{1, 4}, []Word{1})
	m.WriteBlock(Addr{2, 0}, []Word{1})
	alloc := m.BlocksAllocated()
	if alloc[0] != 0 || alloc[1] != 5 || alloc[2] != 1 {
		t.Errorf("BlocksAllocated = %v, want [0 5 1]", alloc)
	}
	if m.TotalBlocks() != 6 {
		t.Errorf("TotalBlocks = %d, want 6", m.TotalBlocks())
	}
}

func TestPeekDoesNotAccount(t *testing.T) {
	m := NewMachine(Config{D: 1, B: 2})
	m.WriteBlock(Addr{0, 0}, []Word{5})
	before := m.Stats()
	if got := m.Peek(Addr{0, 0})[0]; got != 5 {
		t.Errorf("Peek = %d, want 5", got)
	}
	if m.Stats() != before {
		t.Error("Peek changed the stats")
	}
	// Peeking a block past the high-water mark reads zeros without
	// materializing it: storage, and so space accounting, is unchanged.
	alloc := m.TotalBlocks()
	for _, w := range m.Peek(Addr{0, 9}) {
		if w != 0 {
			t.Errorf("Peek of a never-written block = %v, want zeros", w)
		}
	}
	if got := m.TotalBlocks(); got != alloc {
		t.Errorf("Peek past the high-water mark: TotalBlocks %d -> %d", alloc, got)
	}
	if m.Stats() != before {
		t.Error("Peek changed the stats")
	}
}

func TestPerDiskIOs(t *testing.T) {
	m := NewMachine(Config{D: 3, B: 2})
	m.BatchRead([]Addr{{0, 0}, {1, 0}})
	m.WriteBlock(Addr{1, 1}, []Word{1})
	got := m.PerDiskIOs()
	want := []int64{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("disk %d = %d transfers, want %d", i, got[i], want[i])
		}
	}
	m.ResetStats()
	for _, v := range m.PerDiskIOs() {
		if v != 0 {
			t.Error("reset left per-disk tallies")
		}
	}
	// The returned slice is a copy.
	m.ReadBlock(Addr{2, 0})
	snap := m.PerDiskIOs()
	snap[2] = 99
	if m.PerDiskIOs()[2] != 1 {
		t.Error("PerDiskIOs returned a live slice")
	}
}

func TestStripedAccessBalancesDisks(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 8})
	for i := 0; i < 100; i++ {
		m.WriteStripe(i, make([]Word, 32))
		m.ReadStripe(i)
	}
	per := m.PerDiskIOs()
	for i := 1; i < len(per); i++ {
		if per[i] != per[0] {
			t.Fatalf("striped traffic skewed: %v", per)
		}
	}
}

func TestConcurrentAccessIsSafe(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a := Addr{Disk: g % 4, Block: i % 16}
				m.WriteBlock(a, []Word{Word(g)})
				m.ReadBlock(a)
			}
		}(g)
	}
	wg.Wait()
	want := int64(8 * 100 * 2)
	if got := m.Stats().ParallelIOs; got != want {
		t.Errorf("ParallelIOs = %d, want %d", got, want)
	}
}

// Property: for any batch with at most one address per disk, the cost is
// exactly one parallel I/O in the parallel disk model.
func TestPropertyOneBlockPerDiskCostsOne(t *testing.T) {
	f := func(blocks [8]uint8, mask uint8) bool {
		m := NewMachine(Config{D: 8, B: 1})
		var addrs []Addr
		for d := 0; d < 8; d++ {
			if mask&(1<<d) != 0 {
				addrs = append(addrs, Addr{Disk: d, Block: int(blocks[d])})
			}
		}
		if len(addrs) == 0 {
			return m.Stats().ParallelIOs == 0
		}
		m.BatchRead(addrs)
		return m.Stats().ParallelIOs == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: write-then-read round-trips arbitrary block contents.
func TestPropertyWriteReadRoundTrip(t *testing.T) {
	f := func(data []Word, disk uint8, block uint8) bool {
		m := NewMachine(Config{D: 4, B: 16})
		if len(data) > 16 {
			data = data[:16]
		}
		a := Addr{Disk: int(disk % 4), Block: int(block)}
		m.WriteBlock(a, data)
		got := m.ReadBlock(a)
		for i, w := range data {
			if got[i] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: stripe round-trip for arbitrary payloads up to D*B words.
func TestPropertyStripeRoundTrip(t *testing.T) {
	f := func(data []Word, block uint8) bool {
		m := NewMachine(Config{D: 4, B: 8})
		if len(data) > 32 {
			data = data[:32]
		}
		m.WriteStripe(int(block), data)
		got := m.ReadStripe(int(block))
		for i, w := range data {
			if got[i] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
