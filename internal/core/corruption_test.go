package core

// Failure injection: dictionaries must degrade gracefully — never
// panic, never fabricate data for keys that were not stored — when the
// underlying blocks are corrupted out from under them. The decode paths
// (chain fields, majority identifiers, bucket records) all carry enough
// structure to detect damage and report absence instead.

import (
	"math/rand"
	"testing"

	"pdmdict/internal/bitpack"

	"pdmdict/internal/pdm"
)

// smash overwrites every block the machine has materialized with
// rng-driven garbage, one disk at a time, calling check after each
// disk's destruction.
func smash(t *testing.T, m *pdm.Machine, rng *rand.Rand, check func()) {
	t.Helper()
	alloc := m.BlocksAllocated()
	for disk, nBlocks := range alloc {
		for b := 0; b < nBlocks; b++ {
			blk := make([]pdm.Word, m.B())
			for i := range blk {
				blk[i] = rng.Uint64()
			}
			m.WriteBlock(pdm.Addr{Disk: disk, Block: b}, blk)
		}
		check()
	}
}

func TestBasicSurvivesGarbageBlocks(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 8, B: 32})
	bd, err := NewBasic(m, BasicConfig{Capacity: 100, SatWords: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		bd.Insert(pdm.Word(i*5+1), []pdm.Word{pdm.Word(i)})
	}
	rng := rand.New(rand.NewSource(2))
	smash(t, m, rng, func() {
		// Any outcome but a panic is acceptable for lookups of stored
		// keys; lookups must simply not crash.
		for i := 0; i < 20; i++ {
			bd.Lookup(pdm.Word(i*5 + 1))
			bd.Lookup(pdm.Word(rng.Uint64()))
		}
	})
}

func TestDynamicSurvivesGarbageBlocks(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 40, B: 64})
	dd, err := NewDynamic(m, DynamicConfig{Capacity: 200, SatWords: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		dd.Insert(pdm.Word(i*7+1), []pdm.Word{1, 2})
	}
	rng := rand.New(rand.NewSource(4))
	smash(t, m, rng, func() {
		for i := 0; i < 20; i++ {
			dd.Lookup(pdm.Word(i*7 + 1))
			dd.Lookup(pdm.Word(rng.Uint64() | 1<<50))
		}
	})
}

func TestStaticSurvivesGarbageBlocks(t *testing.T) {
	for _, cs := range []StaticCase{CaseB, CaseA} {
		recs := makeRecords(150, 2, 5)
		disks := 12
		if cs == CaseA {
			disks = 24
		}
		m := pdm.NewMachine(pdm.Config{D: disks, B: 64})
		sd, err := BuildStatic(m, StaticConfig{SatWords: 2, Case: cs, Seed: 6}, recs)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		smash(t, m, rng, func() {
			for _, r := range recs[:20] {
				sd.Lookup(r.Key)
			}
			sd.Lookup(pdm.Word(rng.Uint64()))
		})
	}
}

func TestChainDecodeNeverPanicsOnGarbage(t *testing.T) {
	// decodeChain over random field contents, packed at any width from
	// any bit offset, must report absence or a satellite — never panic,
	// never read out of bounds, even where a pointer runs off its field.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5000; trial++ {
		d := 3 + rng.Intn(20)
		fieldBits := 1 + rng.Intn(256)
		satWords := rng.Intn(ceilDiv(fieldBits*d, 64))
		base := rng.Intn(64)
		blk := make([]pdm.Word, ceilDiv(base+d*fieldBits, 64))
		for j := range blk {
			switch rng.Intn(4) {
			case 0:
			case 1:
				blk[j] = ^pdm.Word(0) // unary codes longer than a field
			default:
				blk[j] = rng.Uint64()
			}
		}
		fields := make([]field, d)
		for i := range fields {
			fields[i] = field{blk: blk, off: base + i*fieldBits}
		}
		head := rng.Intn(d+4) - 2 // sometimes out of range
		if gap, _ := decodeChain(fieldBits, fields, head, make([]pdm.Word, satWords)); gap >= 0 {
			t.Fatalf("trial %d: gap %d with every field present", trial, gap)
		}
	}
}

func TestMajorityDecodeRejectsSplitVotes(t *testing.T) {
	// A CaseB field set where no identifier reaches a majority must
	// decode as absent.
	recs := makeRecords(50, 1, 9)
	m := pdm.NewMachine(pdm.Config{D: 6, B: 32})
	sd, err := BuildStatic(m, StaticConfig{SatWords: 1, Case: CaseB, Seed: 10}, recs)
	if err != nil {
		t.Fatal(err)
	}
	c := &sd.c
	decode := func(fields []field) (bool, bool) {
		return decodeMajority(c.fieldBits, c.idBits, fields, make([]pdm.Word, sd.cfg.SatWords))
	}
	// fieldsWithIDs packs one field per stripe into a block, each
	// holding the given identifier and no data.
	fieldsWithIDs := func(ids ...uint64) []field {
		blk := make([]pdm.Word, ceilDiv(c.d*c.fieldBits, 64))
		fields := make([]field, c.d)
		for i := range fields {
			fields[i] = field{blk: blk, off: i * c.fieldBits}
			if i < len(ids) {
				bitpack.NewWriterAt(blk, fields[i].off).WriteBits(ids[i], c.idBits)
			}
		}
		return fields
	}
	if ok, open := decode(fieldsWithIDs(1, 2, 3, 4, 5, 6)); ok || open { // all distinct ids: no majority
		t.Errorf("split votes decoded as present %v, open %v", ok, open)
	}
	// A genuine majority whose fields hold the satellite decodes; with
	// truncated data it must be rejected.
	ok, open := decode(fieldsWithIDs(7, 7, 7, 7)) // majority of 6
	if want := 4*(c.fieldBits-c.idBits) >= 64*sd.cfg.SatWords; ok != want || open {
		t.Errorf("4-field majority decoded as present %v, open %v; want %v, false", ok, open, want)
	}
}

func TestDictSurvivesGarbageAcrossMigration(t *testing.T) {
	d, err := NewDict(DictConfig{InitialCapacity: 32, SatWords: 1, MigrateBatch: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		d.Insert(pdm.Word(i+1), []pdm.Word{1})
	}
	// Corrupt the ACTIVE structure's machine mid-migration, then keep
	// operating: no panics allowed (data loss is expected and fine).
	rng := rand.New(rand.NewSource(12))
	m := d.active.machine()
	alloc := m.BlocksAllocated()
	for disk, nBlocks := range alloc {
		for b := 0; b < nBlocks; b += 3 {
			blk := make([]pdm.Word, m.B())
			for i := range blk {
				blk[i] = rng.Uint64()
			}
			m.WriteBlock(pdm.Addr{Disk: disk, Block: b}, blk)
		}
	}
	for i := 0; i < 100; i++ {
		d.Lookup(pdm.Word(i + 1))
		d.Delete(pdm.Word(rng.Intn(100)))
		d.Insert(pdm.Word(1000+i), []pdm.Word{1})
	}
}
