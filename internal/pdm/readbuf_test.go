package pdm

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// Stored checksums are CRC-32/IEEE over the block's little-endian
// bytes; snapshots carry them, so the value is a format.
func TestCrcBlockIsIEEE(t *testing.T) {
	blk := []Word{0, 1, 0xdeadbeefcafef00d, ^Word(0), 42}
	var bytes []byte
	for _, w := range blk {
		bytes = binary.LittleEndian.AppendUint64(bytes, w)
	}
	if got, want := crcBlock(blk), crc32.ChecksumIEEE(bytes); got != want {
		t.Errorf("crcBlock = %#x, want %#x", got, want)
	}
	if avg := testing.AllocsPerRun(100, func() { crcBlock(blk) }); avg != 0 {
		t.Errorf("crcBlock allocates %.1f objects", avg)
	}
}
