package core

import (
	"slices"
	"strings"
	"testing"

	"pdmdict/internal/pdm"
)

// Accessor and string-representation coverage: small but part of the
// public surface, so they get pinned.
func TestAccessors(t *testing.T) {
	mb := pdm.NewMachine(pdm.Config{D: 8, B: 32})
	bd, err := NewBasic(mb, BasicConfig{Capacity: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Capacity() != 10 {
		t.Errorf("Basic.Capacity = %d", bd.Capacity())
	}

	md := pdm.NewMachine(pdm.Config{D: 4, B: 32})
	dd, err := NewDirect(md, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dd.BlocksPerDisk() < 1 {
		t.Errorf("Direct.BlocksPerDisk = %d", dd.BlocksPerDisk())
	}

	mdy := pdm.NewMachine(pdm.Config{D: 40, B: 64})
	dy, err := NewDynamic(mdy, DynamicConfig{Capacity: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dy.Levels() < 1 || dy.BlocksPerDisk() < 1 {
		t.Errorf("Dynamic accessors: levels=%d blocks=%d", dy.Levels(), dy.BlocksPerDisk())
	}

	mop := pdm.NewMachine(pdm.Config{D: 16, B: 64})
	op, err := NewOneProbe(mop, OneProbeConfig{Capacity: 50, Levels: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if op.Levels() != 3 || op.BlocksPerDisk() < 1 {
		t.Errorf("OneProbe accessors: levels=%d blocks=%d", op.Levels(), op.BlocksPerDisk())
	}

	ms := pdm.NewMachine(pdm.Config{D: 6, B: 32})
	sd, err := BuildStatic(ms, StaticConfig{Seed: 4}, makeRecords(10, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if sd.Degree() != 6 {
		t.Errorf("Static.Degree = %d", sd.Degree())
	}
	if sd.Graph() == nil {
		t.Error("Static.Graph nil")
	}
	if CaseA.String() != "case-a" || CaseB.String() != "case-b" {
		t.Error("StaticCase strings wrong")
	}
	if !strings.Contains(StaticCase(9).String(), "9") {
		t.Error("unknown StaticCase string")
	}
}

func TestRegionAddrPanicsOutOfRange(t *testing.T) {
	r := region{m: pdm.NewMachine(pdm.Config{D: 4, B: 4}), disk0: 1, nDisks: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range region disk did not panic")
		}
	}()
	r.addr(2, 0)
}

func TestSnapshotWriterErrorsPropagate(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 4, B: 16})
	bd, _ := NewBasic(m, BasicConfig{Capacity: 10, Seed: 6})
	if err := bd.Snapshot(failingWriter{}); err == nil {
		t.Error("Basic snapshot to failing writer succeeded")
	}
	m2 := pdm.NewMachine(pdm.Config{D: 40, B: 64})
	dd, _ := NewDynamic(m2, DynamicConfig{Capacity: 10, Seed: 7})
	if err := dd.Snapshot(failingWriter{}); err == nil {
		t.Error("Dynamic snapshot to failing writer succeeded")
	}
	d, _ := NewDict(DictConfig{InitialCapacity: 10, Seed: 8})
	if err := d.Snapshot(failingWriter{}); err == nil {
		t.Error("Dict snapshot to failing writer succeeded")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errWrite
}

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

// FuzzChainCodec: encode/decode round trip over arbitrary stripe sets
// and satellite payloads must be lossless, and the decoder must never
// panic on what the encoder produces.
func FuzzChainCodec(f *testing.F) {
	f.Add(uint8(5), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(20), uint8(14), []byte{})
	f.Add(uint8(5), uint8(3), make([]byte, 64)) // 182-bit fields; the tail's last bits are never written
	f.Fuzz(func(t *testing.T, dRaw, tRaw uint8, satRaw []byte) {
		d := int(dRaw%30) + 3
		tt := int(tRaw)%d + 1
		// Distinct ascending stripes: take the first tt of [0,d).
		stripes := make([]int, tt)
		for i := range stripes {
			stripes[i] = i * d / tt
		}
		// Deduplicate (integer division may repeat).
		uniq := stripes[:1]
		for _, s := range stripes[1:] {
			if s > uniq[len(uniq)-1] {
				uniq = append(uniq, s)
			}
		}
		stripes = uniq
		tt = len(stripes)

		var sat []pdm.Word
		for i := 0; i+8 <= len(satRaw) && len(sat) < 8; i += 8 {
			var w pdm.Word
			for j := 0; j < 8; j++ {
				w |= pdm.Word(satRaw[i+j]) << (8 * j)
			}
			sat = append(sat, w)
		}
		fieldBits := chainFieldBits(64*len(sat), tt, d)

		// The chain is encoded in place twice: over fields packed back to
		// back into one block, from an odd bit offset, filled with
		// garbage, and over zeroed ones. The encoder must clear every
		// field it writes — the two encodings agree on the chain — and
		// leave every other bit of the block alone.
		const base = 5
		words := ceilDiv(base+d*fieldBits, 64)
		garbage := func(i int) pdm.Word { return ^pdm.Word(i) }
		fieldsOver := func(fill func(i int) pdm.Word) ([]pdm.Word, []field) {
			blk := make([]pdm.Word, words)
			for i := range blk {
				blk[i] = fill(i)
			}
			fields := make([]field, d)
			for i := range fields {
				fields[i] = field{blk: blk, off: base + i*fieldBits}
			}
			encodeChain(fieldBits, stripes, sat, fields)
			return blk, fields
		}
		blk, fields := fieldsOver(garbage)
		cleanBlk, _ := fieldsOver(func(int) pdm.Word { return 0 })
		for b := 0; b < 64*words; b++ {
			bit := func(ws []pdm.Word) pdm.Word { return ws[b/64] >> (b % 64) & 1 }
			if i := (b - base) / fieldBits; b >= base && i < d && slices.Contains(stripes, i) {
				if bit(blk) != bit(cleanBlk) {
					t.Fatalf("stripe %d: chain field bit %d differs over garbage and over zeros", i, b)
				}
			} else if bit(blk) != garbage(b/64)>>(b%64)&1 {
				t.Fatalf("bit %d is in no chain field but changed", b)
			}
		}
		got := make([]pdm.Word, len(sat))
		if gap, ok := decodeChain(fieldBits, fields, stripes[0], got); gap >= 0 || !ok {
			t.Fatalf("decode failed: d=%d t=%d sat=%d", d, tt, len(sat))
		}
		for i := range sat {
			if got[i] != sat[i] {
				t.Fatalf("word %d = %d, want %d", i, got[i], sat[i])
			}
		}
	})
}
