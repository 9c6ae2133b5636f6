package core

import (
	"errors"
	"fmt"
	"testing"

	"pdmdict/internal/bucket"
	"pdmdict/internal/expander"
	"pdmdict/internal/fault"
	"pdmdict/internal/pdm"
)

func TestBulkLoadMatchesInserts(t *testing.T) {
	recs := makeRecords(1000, 2, 31)
	// Structure A: bulk loaded. Structure B: inserted one by one with
	// the same seed — contents must agree for every key.
	mA := pdm.NewMachine(pdm.Config{D: 16, B: 64})
	a, err := NewBasic(mA, BasicConfig{Capacity: 1000, SatWords: 2, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.BulkLoad(recs, a.BlocksPerDisk(), 4); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	mB := pdm.NewMachine(pdm.Config{D: 16, B: 64})
	b, err := NewBasic(mB, BasicConfig{Capacity: 1000, SatWords: 2, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := b.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len %d vs %d", a.Len(), b.Len())
	}
	for _, r := range recs {
		sa, okA := a.Lookup(r.Key)
		sb, okB := b.Lookup(r.Key)
		if !okA || !okB {
			t.Fatalf("key %d: bulk=%v insert=%v", r.Key, okA, okB)
		}
		for i := range sa {
			if sa[i] != sb[i] || sa[i] != r.Sat[i] {
				t.Fatalf("key %d satellite diverges: %v vs %v", r.Key, sa, sb)
			}
		}
	}
	if a.MaxLoad() != b.MaxLoad() {
		t.Errorf("max load diverges: bulk %d vs insert %d (same greedy decisions expected)",
			a.MaxLoad(), b.MaxLoad())
	}
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
