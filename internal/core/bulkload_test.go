package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"pdmdict/internal/bucket"
	"pdmdict/internal/expander"
	"pdmdict/internal/fault"
	"pdmdict/internal/loadbalance"
	"pdmdict/internal/pdm"
)

// Balancer.PlaceAll, Insert one key at a time and BulkLoad all call
// loadbalance.Choose, so on the same graph and keys they leave the same
// load in every bucket while none is full: the Balancer that experiments
// E2-lemma3 and E12 measure places exactly as the dictionary does.
// Replicate mode's distinct picks have no Balancer counterpart; there
// Insert and BulkLoad are compared. Both dictionaries must also hold
// every key.
func TestPlacementAgrees(t *testing.T) {
	const n = 200
	graphs := []struct {
		name string
		g    func(seed uint64) expander.Striped
	}{
		{"family-d8", func(seed uint64) expander.Striped { return expander.NewFamily(1<<48, 8, 32, seed) }},
		{"family-d16", func(seed uint64) expander.Striped { return expander.NewFamily(1<<48, 16, 16, seed) }},
		{"telescope", func(uint64) expander.Striped { return buildTelescopeGraph(t, 64) }},
	}
	for _, gr := range graphs {
		for seed := uint64(1); seed <= 3; seed++ {
			g := gr.g(seed)
			for _, k := range []int{1, g.Degree() / 2} {
				t.Run(fmt.Sprintf("%s/seed=%d/k=%d", gr.name, seed, k), func(t *testing.T) {
					checkPlacement(t, BasicConfig{Capacity: n, SatWords: g.Degree() / 2, K: k, Graph: g}, int64(seed))
				})
			}
		}
	}
	t.Run("replicate/k=2", func(t *testing.T) {
		g := expander.NewFamily(1<<48, 8, 32, 4)
		checkPlacement(t, BasicConfig{Capacity: n, SatWords: 3, K: 2, Replicate: true, Graph: g}, 4)
	})
}

// checkPlacement fills one dictionary by Insert and one by BulkLoad
// with cfg.Capacity seeded keys and compares their bucket loads with
// each other and, in fragment mode, with a Balancer's.
func checkPlacement(t *testing.T, cfg BasicConfig, seed int64) {
	g := cfg.Graph
	keys := expander.SampleSet(g.LeftSize(), cfg.Capacity, rand.New(rand.NewSource(seed)))
	recs := make([]bucket.Record, len(keys))
	for i, x := range keys {
		sat := make([]pdm.Word, cfg.SatWords)
		for w := range sat {
			sat[w] = pdm.Word(x)*1000 + pdm.Word(w)
		}
		recs[i] = bucket.Record{Key: pdm.Word(x), Sat: sat}
	}
	build := func() *BasicDict {
		bd, err := NewBasic(pdm.NewMachine(pdm.Config{D: g.Degree(), B: 64}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return bd
	}
	ins, bulk := build(), build()
	for _, r := range recs {
		if err := ins.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
	}
	if err := bulk.BulkLoad(recs, bulk.BlocksPerDisk(), 4); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}

	insLoads, bulkLoads := neighborLoads(ins, keys), neighborLoads(bulk, keys)
	if !maps.Equal(insLoads, bulkLoads) {
		t.Errorf("bucket loads diverge between Insert and BulkLoad")
	}
	if !cfg.Replicate {
		bal := loadbalance.New(g, cfg.K)
		if max, caps := bal.PlaceAll(keys), ins.cfg.BucketBlocks*ins.codec.Capacity(); max >= caps {
			t.Fatalf("Balancer max load %d reaches bucket capacity %d; the comparison needs room", max, caps)
		}
		for y, l := range insLoads {
			if bal.Loads()[y] != l {
				t.Fatalf("bucket %d: Insert left load %d, Balancer %d", y, l, bal.Loads()[y])
			}
		}
	}

	if ins.Len() != len(recs) || bulk.Len() != len(recs) {
		t.Fatalf("Len: insert %d, bulk %d, want %d", ins.Len(), bulk.Len(), len(recs))
	}
	for _, r := range recs {
		for name, bd := range map[string]*BasicDict{"insert": ins, "bulk": bulk} {
			if sat, ok := bd.Lookup(r.Key); !ok || !slices.Equal(sat, r.Sat) {
				t.Fatalf("%s: key %d reads %v, %v; want %v", name, r.Key, sat, ok, r.Sat)
			}
		}
	}
}

// neighborLoads returns bd's record count in every bucket that is a
// neighbor of some key in keys (every bucket a placement of them can
// touch), by global bucket id, read without accounting I/O.
func neighborLoads(bd *BasicDict, keys []uint64) map[int]int {
	loads := map[int]int{}
	for _, x := range keys {
		for _, y := range bd.neighbors(pdm.Word(x), nil) {
			if _, seen := loads[y]; seen {
				continue
			}
			loads[y] = 0
			for _, a := range bd.bucketAddrs(y, nil) {
				loads[y] += bd.codec.Count(bd.reg.m.Peek(a))
			}
		}
	}
	return loads
}

func TestBulkLoadCheaperThanInserts(t *testing.T) {
	recs := makeRecords(2000, 1, 33)
	mA := pdm.NewMachine(pdm.Config{D: 16, B: 64})
	a, _ := NewBasic(mA, BasicConfig{Capacity: 2000, SatWords: 1, Seed: 34})
	if err := a.BulkLoad(recs, a.BlocksPerDisk(), 8); err != nil {
		t.Fatal(err)
	}
	bulkIOs := mA.Stats().ParallelIOs

	mB := pdm.NewMachine(pdm.Config{D: 16, B: 64})
	b, _ := NewBasic(mB, BasicConfig{Capacity: 2000, SatWords: 1, Seed: 34})
	for _, r := range recs {
		if err := b.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
	}
	insertIOs := mB.Stats().ParallelIOs
	if bulkIOs*2 >= insertIOs {
		t.Errorf("bulk load %d I/Os vs %d for inserts; expected well under half", bulkIOs, insertIOs)
	}
}

func TestBulkLoadFragmented(t *testing.T) {
	d := 8
	recs := makeRecords(200, 8, 35)
	m := pdm.NewMachine(pdm.Config{D: d, B: 64})
	bd, err := NewBasic(m, BasicConfig{Capacity: 200, SatWords: 8, K: d / 2, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	if err := bd.BulkLoad(recs, bd.BlocksPerDisk(), 4); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		sat, ok := bd.Lookup(r.Key)
		if !ok {
			t.Fatalf("fragmented key %d lost", r.Key)
		}
		for i := range r.Sat {
			if sat[i] != r.Sat[i] {
				t.Fatalf("key %d word %d = %d, want %d", r.Key, i, sat[i], r.Sat[i])
			}
		}
	}
}

func TestBulkLoadErrors(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 8, B: 64})
	bd, _ := NewBasic(m, BasicConfig{Capacity: 10, SatWords: 1, Seed: 37})
	if err := bd.BulkLoad(makeRecords(11, 1, 38), bd.BlocksPerDisk(), 4); err != ErrFull {
		t.Errorf("over-capacity bulk load: %v", err)
	}
	if err := bd.BulkLoad([]bucket.Record{{Key: 1, Sat: []pdm.Word{1}}, {Key: 1, Sat: []pdm.Word{2}}},
		bd.BlocksPerDisk(), 4); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("duplicate keys: %v", err)
	}
	if err := bd.BulkLoad([]bucket.Record{{Key: 1, Sat: nil}}, bd.BlocksPerDisk(), 4); err == nil {
		t.Error("wrong satellite width accepted")
	}
	if err := bd.BulkLoad(makeRecords(2, 1, 39), bd.BlocksPerDisk(), 2); err == nil {
		t.Error("memStripes=2 accepted")
	}
	if err := bd.BulkLoad(nil, bd.BlocksPerDisk(), 4); err != nil {
		t.Errorf("empty bulk load: %v", err)
	}
	// Non-empty dictionary refuses.
	if err := bd.Insert(5, []pdm.Word{1}); err != nil {
		t.Fatal(err)
	}
	if err := bd.BulkLoad(makeRecords(2, 1, 40), bd.BlocksPerDisk(), 4); err == nil {
		t.Error("bulk load into non-empty dictionary accepted")
	}
}

// TestFragmentSameBucketSurvives forces both fragments of one key into
// the same bucket — the scenario that motivated Codec.AppendAlways
// (Codec.Append would silently replace fragment 0 with fragment 1).
func TestFragmentSameBucketSurvives(t *testing.T) {
	// Geometry: d=2, K=2, stripeSize=2, so each key's neighborhood is
	// one of four (stripe0, stripe1) bucket pairs. Pre-load one stripe-1
	// bucket two units above a stripe-0 bucket; a key seeing that pair
	// then greedily places BOTH fragments in the stripe-0 bucket.
	m := pdm.NewMachine(pdm.Config{D: 2, B: 64})
	bd, err := NewBasic(m, BasicConfig{Capacity: 42, SatWords: 2, K: 2, Slack: 1, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	g := bd.Graph().(expander.Striped)
	if g.StripeSize() != 2 {
		t.Fatalf("geometry drifted: stripeSize=%d, want 2", g.StripeSize())
	}
	// Brute-force keys by their (stripe0, stripe1) neighbor indices.
	find := func(s0, s1 int, avoid map[pdm.Word]bool) pdm.Word {
		for x := pdm.Word(1); x < 1<<16; x++ {
			if avoid[x] {
				continue
			}
			if g.StripeNeighbor(uint64(x), 0) == s0 && g.StripeNeighbor(uint64(x), 1) == s1 {
				return x
			}
		}
		t.Fatal("no key with the wanted neighborhood in range")
		return 0
	}
	used := map[pdm.Word]bool{}
	y1 := find(1, 0, used)
	used[y1] = true
	y2 := find(1, 0, used)
	used[y2] = true
	x := find(0, 0, used)

	// y1, y2 load bucket (stripe0,idx1) and (stripe1,idx0) to 2 each.
	for _, y := range []pdm.Word{y1, y2} {
		if err := bd.Insert(y, []pdm.Word{y, y + 1}); err != nil {
			t.Fatal(err)
		}
	}
	// x sees (stripe0,idx0) at load 0 vs (stripe1,idx0) at load 2:
	// both fragments land in (stripe0,idx0).
	if err := bd.Insert(x, []pdm.Word{70, 71}); err != nil {
		t.Fatal(err)
	}
	frags := 0
	bd.Scan(func(key pdm.Word, fragIdx int, frag []pdm.Word) {
		if key == x {
			frags++
		}
	})
	if frags != 2 {
		t.Fatalf("key x has %d fragments on disk, want 2 (same-bucket placement lost one)", frags)
	}
	sat, ok := bd.Lookup(x)
	if !ok || sat[0] != 70 || sat[1] != 71 {
		t.Fatalf("Lookup(x) = %v %v, want [70 71]", sat, ok)
	}
	// The pre-loaded keys are intact too.
	for _, y := range []pdm.Word{y1, y2} {
		if sat, ok := bd.Lookup(y); !ok || sat[0] != y {
			t.Fatalf("key %d damaged: %v %v", y, sat, ok)
		}
	}
}

// BulkLoad in replicate mode stores K tagged full replicas on distinct
// disks in the canonical bucket layout — bit for bit what inserting the
// same records one by one builds — so every key reads back right, with
// all disks up and with any one of them failed. (It used to store
// fragments: replica 1 carried a fragment tag and a zero satellite.)
func TestBulkLoadReplicated(t *testing.T) {
	const d, b, n = 8, 64, 600
	recs := makeRecords(n, 3, 77)
	build := func() (*pdm.Machine, *BasicDict) {
		m := pdm.NewMachine(pdm.Config{D: d, B: b})
		bd, err := NewBasic(m, BasicConfig{Capacity: n, SatWords: 3, K: 2, Replicate: true, Seed: 78})
		if err != nil {
			t.Fatal(err)
		}
		return m, bd
	}
	mBulk, bulk := build()
	if err := bulk.BulkLoad(recs, bulk.BlocksPerDisk(), 4); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	mIns, ins := build()
	for _, r := range recs {
		if err := ins.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
	}
	for disk := 0; disk < d; disk++ {
		for blk := 0; blk < bulk.BlocksPerDisk(); blk++ {
			a := pdm.Addr{Disk: disk, Block: blk}
			got, want := mBulk.Peek(a), mIns.Peek(a)
			for w := range got {
				if got[w] != want[w] {
					t.Fatalf("block %v word %d: bulk-loaded %#x, inserted %#x", a, w, got[w], want[w])
				}
			}
		}
	}

	check := func(when string, lookup func(pdm.Word) ([]pdm.Word, bool, error)) {
		t.Helper()
		for _, r := range recs {
			sat, ok, err := lookup(r.Key)
			if err != nil || !ok {
				t.Fatalf("%s: key %d: ok=%v err=%v", when, r.Key, ok, err)
			}
			for i := range sat {
				if sat[i] != r.Sat[i] {
					t.Fatalf("%s: key %d reads %v, want %v", when, r.Key, sat, r.Sat)
				}
			}
		}
	}
	check("Lookup", func(x pdm.Word) ([]pdm.Word, bool, error) {
		sat, ok := bulk.Lookup(x)
		return sat, ok, nil
	})
	plan := fault.NewPlan(1)
	mBulk.SetFaultInjector(plan)
	for disk := 0; disk < d; disk++ {
		plan.Reset()
		plan.FailDisk(disk)
		check(fmt.Sprintf("LookupTry with disk %d failed", disk), bulk.LookupTry)
	}
}
