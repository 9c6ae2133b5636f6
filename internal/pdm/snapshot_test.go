package pdm

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestSnapshotRoundTrip(t *testing.T) {
	m := NewMachine(Config{D: 3, B: 4})
	m.WriteBlock(Addr{Disk: 0, Block: 0}, []Word{1, 2, 3, 4})
	m.WriteBlock(Addr{Disk: 2, Block: 5}, []Word{9})
	m.ReadBlock(Addr{Disk: 0, Block: 0})

	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	r, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if r.Config() != m.Config() {
		t.Errorf("config %+v, want %+v", r.Config(), m.Config())
	}
	if r.Stats() != m.Stats() {
		t.Errorf("stats %+v, want %+v", r.Stats(), m.Stats())
	}
	if got := r.Peek(Addr{Disk: 0, Block: 0}); got[3] != 4 {
		t.Errorf("block content = %v", got)
	}
	if got := r.Peek(Addr{Disk: 2, Block: 5}); got[0] != 9 {
		t.Errorf("sparse block content = %v", got)
	}
	// Lazily-unallocated blocks stay zero.
	if got := r.Peek(Addr{Disk: 2, Block: 3}); got[0] != 0 {
		t.Errorf("never-written block = %v", got)
	}
	// Allocation map preserved.
	a, b := m.BlocksAllocated(), r.BlocksAllocated()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("allocation differs: %v vs %v", a, b)
		}
	}
}

func TestSnapshotRoundTripsObservabilityCounters(t *testing.T) {
	m := NewMachine(Config{D: 3, B: 2})
	m.BatchRead([]Addr{{0, 0}, {0, 1}, {1, 0}}) // depth 2
	m.BatchWrite([]BlockWrite{{Addr: Addr{2, 0}, Data: []Word{1}}})

	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	r, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if r.Stats() != m.Stats() {
		t.Errorf("stats %+v, want %+v", r.Stats(), m.Stats())
	}
	want, got := m.PerDiskIOs(), r.PerDiskIOs()
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("per-disk tallies %v, want %v", got, want)
			break
		}
	}
	if dc := r.Stats().DepthCounts; dc[1] != 1 {
		t.Errorf("depth histogram lost: %v", dc[:4])
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("garbage")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadSnapshot(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	// Truncated valid stream.
	m := NewMachine(Config{D: 2, B: 2})
	m.WriteBlock(Addr{Disk: 0, Block: 0}, []Word{1})
	var buf bytes.Buffer
	m.WriteSnapshot(&buf)
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()[:20])); err == nil {
		t.Error("truncated stream accepted")
	}
	// Corrupt header carrying an invalid config.
	data := append([]byte(nil), buf.Bytes()...)
	data[4] = 0 // D := 0
	for i := 5; i < 12; i++ {
		data[i] = 0
	}
	if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestModelStringAndAccessors(t *testing.T) {
	if ParallelDisk.String() != "parallel-disk" || DiskHead.String() != "disk-head" {
		t.Error("model names wrong")
	}
	if !strings.Contains(Model(9).String(), "9") {
		t.Error("unknown model string")
	}
	m := NewMachine(Config{D: 5, B: 7, Model: DiskHead})
	if m.D() != 5 || m.B() != 7 || m.Config().Model != DiskHead {
		t.Error("accessors wrong")
	}
	if (Addr{Disk: 2, Block: 9}).String() != "2:9" {
		t.Error("Addr.String wrong")
	}
}

// Property: snapshots are faithful for arbitrary write patterns.
func TestPropertySnapshotFaithful(t *testing.T) {
	f := func(writes []uint16) bool {
		m := NewMachine(Config{D: 2, B: 2})
		for _, w := range writes {
			m.WriteBlock(Addr{Disk: int(w) % 2, Block: int(w/2) % 16}, []Word{Word(w), Word(w) + 1})
		}
		var buf bytes.Buffer
		if err := m.WriteSnapshot(&buf); err != nil {
			return false
		}
		r, err := ReadSnapshot(&buf)
		if err != nil {
			return false
		}
		for d := 0; d < 2; d++ {
			for b := 0; b < 16; b++ {
				a := Addr{Disk: d, Block: b}
				x, y := m.Peek(a), r.Peek(a)
				for i := range x {
					if x[i] != y[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A loaded machine's disks grow past the snapshot's length like a
// built machine's. ReadSnapshot once grew blocks and checksums by
// separate appends, whose capacities part past 4 096 blocks (5 461 and
// 5 440 for 5 000), and a write to block 5 460 then panicked slicing the
// checksums past their capacity.
func TestLoadedMachineGrowsPastSnapshot(t *testing.T) {
	m := NewMachine(Config{D: 2, B: 1})
	for b := range 5000 {
		m.WriteBlock(Addr{Disk: 0, Block: b}, []Word{Word(b) + 1})
	}
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{5000, 5439, 5440, 5460, 5461, 12000} {
		a := Addr{Disk: 0, Block: b}
		r.WriteBlock(a, []Word{7})
		if got, err := r.TryBatchRead([]Addr{a}); err != nil || got[0][0] != 7 {
			t.Fatalf("block %d of the loaded machine reads %v, %v after a write of 7", b, got, err)
		}
	}
	if got, err := r.TryBatchRead([]Addr{{Disk: 0, Block: 4999}}); err != nil || got[0][0] != 5000 {
		t.Fatalf("block 4999 of the loaded machine reads %v, %v; want 5000", got, err)
	}
	if bad := r.VerifyChecksums(); len(bad) != 0 {
		t.Fatalf("loaded machine's checksums fail at %v", bad)
	}
}
