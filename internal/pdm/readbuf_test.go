package pdm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"
)

func fillBlocks(m *Machine, addrs []Addr) {
	for i, a := range addrs {
		blk := make([]Word, m.B())
		for w := range blk {
			blk[w] = Word(1000*(i+1) + w)
		}
		m.WriteBlock(a, blk)
	}
}

// The buffer-ownership rule: views are valid until the buffer's next
// read, a fresh-buffer wrapper's result is the caller's alone, and both
// forms account, charge and emit identically.
func TestReadBufOwnership(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 8})
	addrs := []Addr{{0, 0}, {1, 0}, {2, 1}, {3, 2}}
	fillBlocks(m, addrs)

	fresh := m.BatchRead(addrs)
	var rb ReadBuf
	before := m.Stats()
	views := m.BatchReadInto(&rb, nil, nil, addrs)
	if d := m.Stats().Sub(before); d.ParallelIOs != 1 || d.BlockReads != 4 {
		t.Errorf("buffered read accounted %+v, want 1 step and 4 block reads", d)
	}
	for i := range addrs {
		for w := range views[i] {
			if views[i][w] != Word(1000*(i+1)+w) || fresh[i][w] != views[i][w] {
				t.Fatalf("block %d word %d: buffered %d fresh %d", i, w, views[i][w], fresh[i][w])
			}
		}
		if len(views[i]) != m.B() || cap(views[i]) != m.B() {
			t.Errorf("view %d has len %d cap %d, want both %d (an append must not run into the next block)", i, len(views[i]), cap(views[i]), m.B())
		}
	}

	// The next read into rb reuses the same memory: the old views now
	// show the new blocks. The fresh result is untouched.
	again := m.BatchReadInto(&rb, nil, nil, []Addr{addrs[3], addrs[2]})
	if &again[0][0] != &views[0][0] {
		t.Error("a warm buffer did not reuse its arena")
	}
	if views[0][0] != 4000 || fresh[0][0] != 1000 {
		t.Errorf("after reuse: old view reads %d (want 4000, the new block), fresh copy reads %d (want 1000)", views[0][0], fresh[0][0])
	}

	// Zero value, empty batch.
	if out := m.BatchReadInto(new(ReadBuf), nil, nil, nil); len(out) != 0 {
		t.Errorf("empty batch returned %d views", len(out))
	}
}

// A failed Try access leaves its view nil even when the buffer's last
// read filled that slot.
func TestReadBufTryClearsFailedViews(t *testing.T) {
	m := NewMachine(Config{D: 3, B: 4})
	addrs := []Addr{{0, 0}, {1, 0}, {2, 0}}
	fillBlocks(m, addrs)
	var rb ReadBuf
	m.BatchReadInto(&rb, nil, nil, addrs)
	m.SetFaultInjector(failDisk(1))
	views, err := m.TryBatchReadInto(&rb, nil, nil, addrs)
	if !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("err = %v, want ErrDiskFailed", err)
	}
	if views[1] != nil {
		t.Errorf("failed access kept a stale view %v", views[1])
	}
	if views[0][0] != 1000 || views[2][0] != 3000 {
		t.Errorf("surviving views read %d and %d", views[0][0], views[2][0])
	}
}

// A Try read's *BatchError follows its views' rule: it lives in the
// buffer and holds until the buffer's next read, whichever kind, while
// the error a fresh-buffer wrapper returns is the caller's for good.
func TestReadBufTryErrorOwnership(t *testing.T) {
	m := NewMachine(Config{D: 3, B: 4})
	addrs := []Addr{{0, 0}, {1, 0}, {2, 0}}
	fillBlocks(m, addrs)
	failedIndex := func(err error) int {
		t.Helper()
		be, ok := AsBatchError(err)
		if !ok || len(be.Blocks) != 1 {
			t.Fatalf("err = %v, want one failed block", err)
		}
		return be.Blocks[0].Index
	}

	var rb ReadBuf
	m.SetFaultInjector(failDisk(1))
	_, held := m.TryBatchReadInto(&rb, nil, nil, addrs)
	_, owned := m.TryBatchRead(addrs)
	var other ReadBuf
	m.SetFaultInjector(failDisk(0))
	if _, err := m.TryBatchReadInto(&other, nil, nil, addrs); failedIndex(err) != 0 {
		t.Fatalf("other buffer's read failed at %d, want 0", failedIndex(err))
	}
	if got := failedIndex(held); got != 1 {
		t.Fatalf("a read into another buffer changed the held error to index %d", got)
	}

	// rb's next read reuses the error: a Try read refills it, a plain
	// read empties it. The fresh wrapper's error never changes.
	m.SetFaultInjector(failDisk(2))
	_, again := m.TryBatchReadInto(&rb, nil, nil, addrs)
	if again != held || failedIndex(held) != 2 {
		t.Errorf("rb's next Try read returned %p (held %p), held now fails at %d, want the same error failing at 2", again, held, failedIndex(held))
	}
	m.BatchReadInto(&rb, nil, nil, addrs)
	if be, _ := AsBatchError(held); len(be.Blocks) != 0 {
		t.Errorf("after a plain read of rb the held error still lists %v", be.Blocks)
	}
	if got := failedIndex(owned); got != 1 || !errors.Is(owned, ErrDiskFailed) {
		t.Errorf("fresh wrapper's error now fails at %d (%v), want 1, ErrDiskFailed", got, owned)
	}
}

type failDisk int

func (d failDisk) Access(_ EventKind, a Addr) Fault {
	if a.Disk == int(d) {
		return Fault{Kind: FaultFailStop}
	}
	return Fault{}
}

// A batch wide enough to fan out fills one buffer from several workers;
// every slot must still hold its own block, reuse after reuse.
func TestReadBufWideBatch(t *testing.T) {
	const D = 8
	m := NewMachine(Config{D: D, B: 2, Workers: 4})
	var addrs []Addr
	for b := 0; len(addrs) < fanoutMinBlocks+D; b++ {
		for d := 0; d < D; d++ {
			addrs = append(addrs, Addr{Disk: d, Block: b})
		}
	}
	fillBlocks(m, addrs)
	var rb ReadBuf
	for round := 0; round < 3; round++ {
		views := m.BatchReadInto(&rb, nil, nil, addrs)
		for i := range addrs {
			if views[i][0] != Word(1000*(i+1)) {
				t.Fatalf("round %d slot %d reads %d", round, i, views[i][0])
			}
		}
	}
}

// A buffer that grows takes an eighth to spare, so a merged batch a
// little larger than any before it reads without reallocating the arena.
func TestReadBufGrowsWithHeadroom(t *testing.T) {
	m := NewMachine(Config{D: 4, B: 8})
	batch := func(n int) []Addr {
		addrs := make([]Addr, n)
		for i := range addrs {
			addrs[i] = Addr{Disk: i % 4, Block: i / 4}
		}
		return addrs
	}
	var rb ReadBuf
	first := m.BatchReadInto(&rb, nil, nil, batch(64))
	for _, n := range []int{65, 72} {
		addrs := batch(n)
		if avg := testing.AllocsPerRun(10, func() { m.BatchReadInto(&rb, nil, nil, addrs) }); avg != 0 {
			t.Errorf("a read of %d blocks after one of 64 allocates %.1f objects", n, avg)
		}
	}
	if again := m.BatchReadInto(&rb, nil, nil, batch(73)); &again[0][0] == &first[0][0] {
		t.Error("a read of 73 blocks after one of 64 kept the arena")
	}
}

// Stored checksums are CRC-32/IEEE over the block's little-endian
// bytes; snapshots carry them, so the value is a format.
func TestCrcBlockIsIEEE(t *testing.T) {
	blk := []Word{0, 1, 0xdeadbeefcafef00d, ^Word(0), 42}
	var bytes []byte
	for _, w := range blk {
		bytes = binary.LittleEndian.AppendUint64(bytes, w)
	}
	buf := make([]byte, 8*len(blk))
	if got, want := crcBlock(buf, blk), crc32.ChecksumIEEE(bytes); got != want || got != 0x0aedaecb {
		t.Errorf("crcBlock = %#x, want %#x (and 0x0aedaecb)", got, want)
	}
	if avg := testing.AllocsPerRun(100, func() { crcBlock(buf, blk) }); avg != 0 {
		t.Errorf("crcBlock allocates %.1f objects", avg)
	}
}

// crcBlock agrees with crc32.ChecksumIEEE of the little-endian encoding
// for every block length from 0 to B, whatever the words and whatever
// the buffer held before.
func FuzzCrcBlock(f *testing.F) {
	const B = 64
	f.Add([]byte{}, byte(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(0xff))
	f.Add(make([]byte, 8*B+3), byte(0x5a))
	f.Fuzz(func(t *testing.T, data []byte, stale byte) {
		blk := make([]Word, min(len(data)/8, B))
		for i := range blk {
			blk[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		buf := make([]byte, 8*B)
		for i := range buf {
			buf[i] = stale
		}
		want := crc32.ChecksumIEEE(data[:8*len(blk)])
		if got := crcBlock(buf, blk); got != want {
			t.Fatalf("crcBlock of %d words = %#x, want %#x", len(blk), got, want)
		}
	})
}

// Both checksum paths compute the same CRC over random blocks of every
// length up to B, whatever the encoding buffer held before: the
// in-place path over the words' memory, which only a little-endian host
// takes, and the encoding path every other host takes.
func TestCrcPathsAgree(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("the in-place checksum path is taken on little-endian hosts only")
	}
	const B = 64
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 8*B)
	for trial := range 2000 {
		blk := make([]Word, rng.Intn(B+1))
		for i := range blk {
			blk[i] = rng.Uint64()
		}
		rng.Read(buf)
		if in, enc := crcInPlace(blk), crcEncoded(buf, blk); in != enc {
			t.Fatalf("trial %d, %d words: in-place CRC %#x, encoded %#x", trial, len(blk), in, enc)
		}
	}
}

// A read of a never-written block materializes it, as space accounting
// and snapshots count it, but as an empty slot that reads as zeros: a
// warm read allocates nothing, and a write or a corruption of one such
// block gives it words of its own, leaving every other reading zero.
func TestReadsShareTheZeroBlock(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 8})
	var rb ReadBuf
	addrs := []Addr{{Disk: 0, Block: 3}, {Disk: 1, Block: 5}, {Disk: 1, Block: 6}}
	m.BatchReadInto(&rb, nil, nil, addrs)
	if got := m.BlocksAllocated(); got[0] != 4 || got[1] != 7 {
		t.Fatalf("BlocksAllocated after reads = %v, want [4 7]", got)
	}
	fresh := []Addr{{Disk: 0, Block: 2}, {Disk: 1, Block: 4}}
	if avg := testing.AllocsPerRun(100, func() { m.BatchReadInto(&rb, nil, nil, fresh) }); avg != 0 {
		t.Errorf("a warm read of never-written blocks allocates %.1f objects", avg)
	}
	m.WriteBlock(addrs[0], []Word{1, 2})
	m.FlipBit(addrs[1], 3)
	for i, want := range []Word{1, 8, 0} {
		if got := m.Peek(addrs[i])[0]; got != want {
			t.Errorf("block %v reads %d first, want %d", addrs[i], got, want)
		}
	}
	if got := m.Peek(Addr{Disk: 0, Block: 2}); slices.ContainsFunc(got, func(w Word) bool { return w != 0 }) {
		t.Errorf("a never-written block reads %v after writes elsewhere", got)
	}
	if bad := m.VerifyChecksums(); !slices.Equal(bad, []Addr{addrs[1]}) {
		t.Errorf("VerifyChecksums = %v, want only the corrupted %v", bad, addrs[1])
	}
	// A snapshot holds every materialized block, read-only ones included.
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.BlocksAllocated(); !slices.Equal(got, m.BlocksAllocated()) {
		t.Errorf("restored BlocksAllocated = %v, want %v", got, m.BlocksAllocated())
	}
}
