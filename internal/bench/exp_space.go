package bench

import (
	"pdmdict/internal/btree"
	"pdmdict/internal/bucket"
	"pdmdict/internal/core"
	"pdmdict/internal/hashing"
	"pdmdict/internal/pdm"
	"pdmdict/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E13-space",
		Title: "linear space: allocated words per stored key across structures",
		Run:   runSpace,
	})
}

// runSpace checks the claim stated for every structure in the paper —
// "All of our dictionaries use linear space" — by measuring the
// words-per-key actually materialized on the simulated disks, across a
// size sweep. Linear space means the column is flat in n; the constants
// differ per structure exactly as the theorems' space expressions say
// (e.g. Theorem 6(b) pays O(log u/ log n + σ/d) extra words per key in
// field granularity). Fields are packed at their bit width, so Theorem
// 6(b)'s ⌈lg(n+1)⌉-bit identifiers show as a slow rise in n.
func runSpace() []Table {
	t := Table{
		ID:      "E13-space",
		Title:   "allocated words per key (d=14, B=64, σ=2 words; key+σ = 3 words payload)",
		Columns: []string{"n", "§4.1 basic", "§4.2 static (b)", "§4.3 dynamic", "hash table", "B-tree"},
	}
	d, b, sigma := 14, 64, 2
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		keys := workload.Uniform(n, 1<<44, int64(n)+7)
		sat := make([]pdm.Word, sigma)
		row := []interface{}{n}
		perKey := func(m *pdm.Machine) float64 {
			return float64(m.TotalBlocks()*b) / float64(n)
		}

		{
			m := newMachine(pdm.Config{D: d, B: b})
			bd, err := core.NewBasic(m, core.BasicConfig{Capacity: n, SatWords: sigma, Seed: 501})
			if err != nil {
				panic(err)
			}
			for _, k := range keys {
				if err := bd.Insert(k, sat); err != nil {
					panic(err)
				}
			}
			// Charge the whole bucket array, not just touched blocks.
			row = append(row, float64(bd.BlocksPerDisk()*d*b)/float64(n))
		}
		{
			m := newMachine(pdm.Config{D: d, B: b})
			recs := makeStaticRecords(keys, sigma)
			sd, err := core.BuildStatic(m, core.StaticConfig{SatWords: sigma, Seed: 502}, recs)
			if err != nil {
				panic(err)
			}
			row = append(row, float64(sd.BlocksPerDisk()*d*b)/float64(n))
		}
		{
			m := newMachine(pdm.Config{D: 2 * d, B: b})
			dd, err := core.NewDynamic(m, core.DynamicConfig{Capacity: n, SatWords: sigma, Epsilon: 0.9, Seed: 503})
			if err != nil {
				panic(err)
			}
			for _, k := range keys {
				if err := dd.Insert(k, sat); err != nil {
					panic(err)
				}
			}
			row = append(row, float64(dd.BlocksPerDisk()*2*d*b)/float64(n))
		}
		{
			m := newMachine(pdm.Config{D: d, B: b})
			tab, err := hashing.NewTable(m, hashing.TableConfig{Capacity: n, SatWords: sigma, Seed: 504})
			if err != nil {
				panic(err)
			}
			for _, k := range keys {
				if err := tab.Insert(k, sat); err != nil {
					panic(err)
				}
			}
			row = append(row, perKey(m))
		}
		{
			m := newMachine(pdm.Config{D: d, B: b})
			tr, err := btree.New(m, btree.Config{SatWords: sigma})
			if err != nil {
				panic(err)
			}
			for _, k := range keys {
				if err := tr.Insert(k, sat); err != nil {
					panic(err)
				}
			}
			row = append(row, perKey(m))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"every column but §4.2 static (b) is flat in n — linear space, as the paper claims for all its dictionaries; static (b) packs a ⌈lg(n+1)⌉-bit identifier into each field, so it rises with lg n bits per field, still linear in words of lg u bits; the constants order as the theorems' space terms predict (field arrays cost more than packed hash stripes, the §4.3 cascade doubles the disks)",
		"dictionary columns charge the full reserved arrays (the structures' committed footprint), not just touched blocks")
	return []Table{t}
}

// makeStaticRecords adapts a key list for BuildStatic.
func makeStaticRecords(keys []pdm.Word, sigma int) []bucket.Record {
	recs := make([]bucket.Record, len(keys))
	for i, k := range keys {
		sat := make([]pdm.Word, sigma)
		for j := range sat {
			sat[j] = k + pdm.Word(j)
		}
		recs[i] = bucket.Record{Key: k, Sat: sat}
	}
	return recs
}
