package core

import (
	"slices"
	"testing"
	"testing/quick"

	"pdmdict/internal/bucket"
	"pdmdict/internal/pdm"
)

// Property: a packed field never straddles a block. For Dynamic,
// OneProbe, Static CaseA and CaseB over random degrees, block sizes and
// satellite sizes, every field any key's neighborhood names, at every
// level, lies whole inside one block of its level's footprint, and the
// footprint covers the level's range. The structure then answers every
// stored key with its satellite: no field write clobbered a neighbor.
func TestPropertyPackedFieldsStayInBlocks(t *testing.T) {
	f := func(kindRaw, dRaw, bRaw, satRaw uint8, raw []uint32) bool {
		b := []int{4, 8, 16, 64}[bRaw%4]
		sat := int(satRaw % 5)
		seen := map[pdm.Word]bool{}
		var recs []bucket.Record
		for _, r := range raw {
			k := pdm.Word(r)
			if seen[k] || len(recs) == 40 {
				continue
			}
			seen[k] = true
			s := make([]pdm.Word, sat)
			for j := range s {
				s[j] = k*0x9e3779b97f4a7c15 + pdm.Word(j)
			}
			recs = append(recs, bucket.Record{Key: k, Sat: s})
		}
		var c *cascade
		var lookup func(pdm.Word) ([]pdm.Word, bool)
		kind := kindRaw % 4
		switch kind {
		case 0:
			d := 19 + int(dRaw%6)
			dd, err := NewDynamic(pdm.NewMachine(pdm.Config{D: 2 * d, B: b}), DynamicConfig{Capacity: 64, SatWords: sat, Seed: uint64(dRaw)})
			if err != nil {
				t.Logf("NewDynamic: %v", err)
				return false
			}
			c, lookup = &dd.cascade, dd.Lookup
		case 1:
			d, levels := 3+int(dRaw%6), 1+int(dRaw/6%3)
			op, err := NewOneProbe(pdm.NewMachine(pdm.Config{D: (levels + 1) * d, B: b}), OneProbeConfig{Capacity: 64, SatWords: sat, Levels: levels, Seed: uint64(dRaw)})
			if err != nil {
				t.Logf("NewOneProbe: %v", err)
				return false
			}
			c, lookup = &op.cascade, op.Lookup
		default:
			cs, d := CaseA, 3+int(dRaw%8)
			disks := 2 * d
			if kind == 3 {
				cs, disks = CaseB, d
			}
			sd, err := BuildStatic(pdm.NewMachine(pdm.Config{D: disks, B: b}), StaticConfig{SatWords: sat, Case: cs, Seed: uint64(dRaw)}, recs)
			if err != nil {
				return true // an unlucky peeling: nothing laid out to check
			}
			c, lookup = &sd.c, sd.Lookup
		}
		if c.fieldsPerBlock*c.fieldBits > 64*b {
			t.Logf("%d fields of %d bits overflow a %d-word block", c.fieldsPerBlock, c.fieldBits, b)
			return false
		}
		stored := recs // Static holds every record it was built over
		if kind < 2 {
			stored = nil
			for _, r := range recs {
				if c.Insert(r.Key, r.Sat) == nil { // a congested cascade may refuse
					stored = append(stored, r)
				}
			}
			if len(stored) < len(recs)/2 {
				t.Logf("%d of %d inserts refused", len(recs)-len(stored), len(recs))
				return false
			}
		}
		sc := new(probeScratch)
		for li := range c.levels {
			lv := &c.levels[li]
			if lv.graph.StripeSize() > lv.blocks*c.fieldsPerBlock {
				t.Logf("level %d: a range of %d fields in %d blocks of %d", li, lv.graph.StripeSize(), lv.blocks, c.fieldsPerBlock)
				return false
			}
			for _, r := range recs {
				blocks := make([][]pdm.Word, c.d)
				for i := range blocks {
					blocks[i] = make([]pdm.Word, b)
				}
				for i, f := range c.fieldsOf(sc, lv, r.Key, blocks) {
					j := lv.graph.StripeNeighbor(uint64(r.Key), i)
					if f.off < 0 || f.off+c.fieldBits > 64*b || j/c.fieldsPerBlock >= lv.blocks {
						t.Logf("level %d, key %d, stripe %d: field %d at bit %d of block %d (footprint %d blocks of %d bits)", li, r.Key, i, j, f.off, j/c.fieldsPerBlock, lv.blocks, 64*b)
						return false
					}
				}
			}
		}
		for _, r := range stored {
			if got, ok := lookup(r.Key); !ok || !slices.Equal(got, r.Sat) {
				t.Logf("key %d reads %v, %v; want %v", r.Key, got, ok, r.Sat)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
