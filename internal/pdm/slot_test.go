package pdm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"
)

// shortBlocks writes block b of every disk with b%(B+1) used words, an
// interior zero among them, so after Compact the slots have every length
// from 0 to B.
func shortBlocks(m *Machine, blocks int) {
	for d := range m.D() {
		for b := range blocks {
			data := make([]Word, b%(m.B()+1))
			for i := range data {
				if i != 1 {
					data[i] = Word(100*d + 10*b + i + 1)
				}
			}
			m.WriteBlock(Addr{Disk: d, Block: b}, data)
		}
	}
}

// stripeAddrs lists blocks [0, blocks) of every disk.
func stripeAddrs(m *Machine, blocks int) []Addr {
	var addrs []Addr
	for b := range blocks {
		for d := range m.D() {
			addrs = append(addrs, Addr{Disk: d, Block: b})
		}
	}
	return addrs
}

// A read into a buffer that still holds an earlier batch's words returns
// zeros past each short slot, never-written blocks' empty slots included,
// on the inline and the partitioned read path and in both read modes.
func TestShortSlotReadsClearStaleBuffer(t *testing.T) {
	const B = 8
	for _, blocks := range []int{3, 12} { // 12 and 48 blocks a batch: the inline path and the partitioned one
		m := NewMachine(Config{D: 4, B: B, Workers: 1})
		short := stripeAddrs(m, blocks)
		shortBlocks(m, blocks)
		m.Compact()
		full := make([]Addr, len(short))
		for i, a := range short {
			full[i] = Addr{Disk: a.Disk, Block: a.Block + blocks}
		}
		fresh := make([]Addr, len(short))
		for i, a := range short {
			fresh[i] = Addr{Disk: a.Disk, Block: a.Block + 2*blocks}
		}
		ones := make([]Word, B)
		for i := range ones {
			ones[i] = ^Word(0)
		}
		for _, a := range full {
			m.WriteBlock(a, ones)
		}
		for _, try := range []bool{false, true} {
			var rb ReadBuf
			for _, addrs := range [][]Addr{short, fresh} {
				if _, err := m.batchRead(&rb, nil, nil, full, try); err != nil {
					t.Fatal(err)
				}
				views, err := m.batchRead(&rb, nil, nil, addrs, try)
				if err != nil {
					t.Fatal(err)
				}
				for i, a := range addrs {
					if want := m.Peek(a); !slices.Equal(views[i], want) {
						t.Fatalf("%d blocks, try=%v: %v reads %v over a stale buffer, want %v", len(addrs), try, a, views[i], want)
					}
				}
			}
		}
	}
}

// A write into a compacted slot stores its words, zeros included, in
// place while its used words fit the slot, and otherwise moves the block
// to a full slot. A partial write (fewer than B words) keeps the
// block's old tail past its words either way.
func TestPartialWriteKeepsCompactedTail(t *testing.T) {
	m := NewMachine(Config{D: 1, B: 8})
	a := Addr{}
	m.WriteBlock(a, []Word{1, 2, 3, 0, 0, 6, 0, 0})
	m.Compact()
	if got := m.SlotWords(a); got != 6 {
		t.Fatalf("compacted slot holds %d words, want 6", got)
	}
	for _, w := range []struct {
		data, want []Word
		slot       int
	}{
		{[]Word{1, 2, 4, 0, 0, 6, 0, 0}, []Word{1, 2, 4, 0, 0, 6, 0, 0}, 6},
		{[]Word{9}, []Word{9, 2, 4, 0, 0, 6, 0, 0}, 6},
		{[]Word{9, 0, 0}, []Word{9, 0, 0, 0, 0, 6, 0, 0}, 6},
		{[]Word{0, 0, 0, 0, 0, 0, 7}, []Word{0, 0, 0, 0, 0, 0, 7, 0}, 8},
		{[]Word{5}, []Word{5, 0, 0, 0, 0, 0, 7, 0}, 8},
	} {
		m.WriteBlock(a, w.data)
		if got := m.Peek(a); !slices.Equal(got, w.want) {
			t.Fatalf("after writing %v the block reads %v, want %v", w.data, got, w.want)
		}
		if got := m.SlotWords(a); got != w.slot {
			t.Fatalf("after writing %v the slot holds %d words, want %d", w.data, got, w.slot)
		}
		if bad := m.VerifyChecksums(); len(bad) != 0 {
			t.Fatalf("after writing %v VerifyChecksums = %v", w.data, bad)
		}
	}
}

// A bit flipped past a short slot's length, by FlipBit or by a
// FaultCorrupt read, lands in the block and is detected by
// VerifyChecksums and by a Try read, while the slot's own words stay.
func TestCorruptionPastShortSlotIsDetected(t *testing.T) {
	const B = 8
	for _, how := range []string{"FlipBit", "FaultCorrupt"} {
		m := NewMachine(Config{D: 2, B: B})
		a := Addr{Disk: 1, Block: 2}
		m.WriteBlock(a, []Word{4, 5})
		m.Compact()
		const bit = 64*6 + 3 // word 6, past the slot's 2
		var rb ReadBuf
		if how == "FlipBit" {
			m.FlipBit(a, bit)
		} else {
			m.SetFaultInjector(&scriptInjector{faults: map[Addr]Fault{a: {Kind: FaultCorrupt, Bit: bit}}})
			_, err := m.TryBatchReadInto(&rb, nil, nil, []Addr{a})
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("%s: the corrupting read returned %v, want ErrChecksum", how, err)
			}
			m.SetFaultInjector(nil)
		}
		if got, want := m.Peek(a), []Word{4, 5, 0, 0, 0, 0, 1 << 3, 0}; !slices.Equal(got, want) {
			t.Fatalf("%s: the block reads %v, want %v", how, got, want)
		}
		if bad := m.VerifyChecksums(); !slices.Equal(bad, []Addr{a}) {
			t.Errorf("%s: VerifyChecksums = %v, want [%v]", how, bad, a)
		}
		if _, err := m.TryBatchReadInto(&rb, nil, nil, []Addr{a}); !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: a Try read of the damaged block returned %v, want ErrChecksum", how, err)
		}
	}
}

// A compacted machine and its uncompacted twin are the same machine to
// every observer: block contents, stored checksums, Stats,
// BlocksAllocated and snapshot bytes; only the slots differ.
func TestCompactedTwinAgrees(t *testing.T) {
	const B, blocks = 8, 20
	twins := [2]*Machine{}
	for i := range twins {
		m := NewMachine(Config{D: 3, B: B})
		shortBlocks(m, blocks)
		m.BatchRead(stripeAddrs(m, blocks+2)) // two rows of empty slots
		m.FlipBit(Addr{Disk: 2, Block: 4}, 64*7)
		zeroed := Addr{Disk: 1, Block: blocks}
		m.WriteBlock(zeroed, []Word{7, 7})
		m.WriteBlock(zeroed, make([]Word, B)) // a full slot of zeros
		twins[i] = m
	}
	m, twin := twins[0], twins[1]
	m.Compact()
	slots := 0
	for _, a := range stripeAddrs(m, blocks+2) {
		if m.SlotWords(a) < twin.SlotWords(a) {
			slots++
		}
		if got, want := m.Peek(a), twin.Peek(a); !slices.Equal(got, want) {
			t.Fatalf("block %v reads %v compacted, %v not", a, got, want)
		}
	}
	if slots == 0 {
		t.Fatal("Compact shrank no slot")
	}
	for d := range m.shards {
		if got, want := m.shards[d].sums, twin.shards[d].sums; !slices.Equal(got, want) {
			t.Errorf("disk %d checksums %v compacted, %v not", d, got, want)
		}
	}
	if got, want := m.Stats(), twin.Stats(); got != want {
		t.Errorf("Stats %+v compacted, %+v not", got, want)
	}
	if got, want := m.BlocksAllocated(), twin.BlocksAllocated(); !slices.Equal(got, want) {
		t.Errorf("BlocksAllocated %v compacted, %v not", got, want)
	}
	if got, want := m.VerifyChecksums(), twin.VerifyChecksums(); !slices.Equal(got, want) || len(got) != 1 {
		t.Errorf("VerifyChecksums %v compacted, %v not; want the one flipped block", got, want)
	}
	var snap, twinSnap bytes.Buffer
	if err := m.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := twin.WriteSnapshot(&twinSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), twinSnap.Bytes()) {
		t.Error("the compacted machine's snapshot differs from its twin's")
	}
}

// Compact is host housekeeping: it emits no event and charges nothing.
func TestCompactEmitsNothing(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 8})
	shortBlocks(m, 6)
	var c countingHook
	m.SetHook(&c)
	before, perDisk := m.Stats(), m.PerDiskIOs()
	m.Compact()
	if n := c.n.Load(); n != 0 {
		t.Errorf("Compact emitted %d events", n)
	}
	if m.Stats() != before || !slices.Equal(m.PerDiskIOs(), perDisk) {
		t.Errorf("Compact moved Stats %+v → %+v, per-disk %v → %v", before, m.Stats(), perDisk, m.PerDiskIOs())
	}
}

// slotModel is FuzzBlockSlots' reference machine: every block a plain
// B-word array, with the checksum its last write (or load) stored.
type slotModel struct {
	span  []int           // per disk, blocks the disk has been grown to
	held  map[Addr]bool   // materialized blocks
	words map[Addr][]Word // B words each; absent = all zero
	sums  map[Addr]uint32 // absent = the all-zero CRC
	b     int
}

func (r *slotModel) block(a Addr) []Word {
	if w, ok := r.words[a]; ok {
		return w
	}
	w := make([]Word, r.b)
	r.words[a] = w
	return w
}

func (r *slotModel) touch(a Addr) {
	r.span[a.Disk] = max(r.span[a.Disk], a.Block+1)
	r.held[a] = true
}

func (r *slotModel) crc(a Addr) uint32 {
	buf := make([]byte, 8*r.b)
	for i, w := range r.block(a) {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return crc32.ChecksumIEEE(buf)
}

func (r *slotModel) sum(a Addr) uint32 {
	if s, ok := r.sums[a]; ok {
		return s
	}
	return crc32.ChecksumIEEE(make([]byte, 8*r.b))
}

// blocksSection encodes the model's blocks as a snapshot's trailing
// section: per disk a block count, then per block a presence byte and,
// when present, its B words.
func (r *slotModel) blocksSection() []byte {
	var out []byte
	for d, n := range r.span {
		out = binary.LittleEndian.AppendUint64(out, uint64(n))
		for b := range n {
			a := Addr{Disk: d, Block: b}
			if !r.held[a] {
				out = append(out, 0)
				continue
			}
			out = append(out, 1)
			for _, w := range r.block(a) {
				out = binary.LittleEndian.AppendUint64(out, w)
			}
		}
	}
	return out
}

// FuzzBlockSlots drives full and partial writes, reads, FlipBit,
// Compact, ReleaseStripes and snapshot round trips against slotModel,
// and after every step compares what a read returns through a reused
// buffer, what VerifyChecksums and Try reads report, and the blocks a
// snapshot holds.
func FuzzBlockSlots(f *testing.F) {
	const D, B, blocks = 3, 8, 6
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 5, 3, 0, 9, 4, 2, 0, 0, 7, 1, 1, 3, 4, 5, 6})
	f.Add([]byte{0, 7, 8, 0xff, 0, 3, 1, 2, 2, 0, 4, 1, 0, 9, 6, 0, 5, 2, 3, 4, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		m := NewMachine(Config{D: D, B: B, Workers: 1})
		ref := &slotModel{span: make([]int, D), held: map[Addr]bool{}, words: map[Addr][]Word{}, sums: map[Addr]uint32{}, b: B}
		var rb ReadBuf
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			v := int(prog[0])
			prog = prog[1:]
			return v
		}
		addr := func() Addr { v := next(); return Addr{Disk: v % D, Block: v / D % blocks} }
		for step := 0; len(prog) > 0; step++ {
			switch op := next() % 6; op {
			case 0, 1: // a write: full (op 0) or partial, its words up to a random last nonzero one
				a := addr()
				n, used := B, next()%(B+1)
				if op == 1 {
					n = next() % B
					used = min(used, n)
				}
				data := make([]Word, n)
				for i := range used {
					data[i] = Word(next()) << (8 * (i % 8))
				}
				m.WriteBlock(a, data)
				ref.touch(a)
				copy(ref.block(a), data)
				ref.sums[a] = ref.crc(a)
			case 2:
				a, bit := addr(), uint(next()*7)
				m.FlipBit(a, bit)
				ref.touch(a)
				bit %= 64 * B
				ref.block(a)[bit/64] ^= 1 << (bit % 64)
			case 3:
				m.Compact()
			case 4:
				first := next() % blocks
				end := first + next()%blocks
				m.ReleaseStripes(first, end)
				for d := range D {
					for b := first; b < min(end, ref.span[d]); b++ {
						a := Addr{Disk: d, Block: b}
						delete(ref.held, a)
						delete(ref.words, a)
						delete(ref.sums, a)
					}
				}
			case 5:
				var snap bytes.Buffer
				if err := m.WriteSnapshot(&snap); err != nil {
					t.Fatal(err)
				}
				section := ref.blocksSection()
				if got := snap.Bytes(); !bytes.HasSuffix(got, section) || len(got) != 4+8*(7+DepthBuckets+D)+len(section) {
					t.Fatalf("step %d: the snapshot's blocks differ from the model's", step)
				}
				var err error
				if m, err = ReadSnapshot(&snap); err != nil {
					t.Fatal(err)
				}
				for a := range ref.held {
					ref.sums[a] = ref.crc(a)
				}
			}
			var damaged []Addr
			for d := range D {
				for b := range ref.span[d] {
					if a := (Addr{Disk: d, Block: b}); ref.held[a] && ref.crc(a) != ref.sum(a) {
						damaged = append(damaged, a)
					}
				}
			}
			if got := m.VerifyChecksums(); !slices.Equal(got, damaged) {
				t.Fatalf("step %d: VerifyChecksums = %v, want %v", step, got, damaged)
			}
			// Read every block in the disks' spans, through the reused
			// buffer and then through the Try path.
			var addrs []Addr
			for d := range D {
				for b := range ref.span[d] {
					addrs = append(addrs, Addr{Disk: d, Block: b})
				}
			}
			views := m.BatchReadInto(&rb, nil, nil, addrs)
			for i, a := range addrs {
				if !slices.Equal(views[i], ref.block(a)) {
					t.Fatalf("step %d: %v reads %v, want %v", step, a, views[i], ref.block(a))
				}
				ref.held[a] = true
			}
			_, err := m.TryBatchReadInto(&rb, nil, nil, addrs)
			var failed []Addr
			if be := (*BatchError)(nil); errors.As(err, &be) {
				for _, e := range be.Blocks {
					failed = append(failed, e.Addr)
				}
			}
			if !slices.Equal(failed, damaged) {
				t.Fatalf("step %d: a Try read fails %v (%v), want %v", step, failed, err, damaged)
			}
		}
	})
}
