package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// materializedFrom lists the blocks at or past block first that m
// holds, read off its snapshot stream. After the magic, the seven header
// words, the depth histogram and the per-disk tallies, each disk is a
// block count and then, per block, a presence byte followed by the
// block's words when it is set.
func materializedFrom(t *testing.T, m *pdm.Machine, first int) []pdm.Addr {
	t.Helper()
	var snap bytes.Buffer
	if err := m.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(snap.Bytes())
	if _, err := r.Seek(int64(4+8*(7+pdm.DepthBuckets+m.D())), io.SeekStart); err != nil {
		t.Fatal(err)
	}
	var held []pdm.Addr
	for disk := 0; disk < m.D(); disk++ {
		var n uint64
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < int(n); b++ {
			present, err := r.ReadByte()
			if err != nil {
				t.Fatal(err)
			}
			if present == 0 {
				continue
			}
			if b >= first {
				held = append(held, pdm.Addr{Disk: disk, Block: b})
			}
			if _, err := r.Seek(int64(8*m.B()), io.SeekCurrent); err != nil {
				t.Fatal(err)
			}
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d snapshot bytes past the last disk", r.Len())
	}
	return held
}

// bulkBuilt is what the bulk-build tests need of a dictionary.
type bulkBuilt interface {
	Lookup(x pdm.Word) ([]pdm.Word, bool)
	BlocksPerDisk() int
	Snapshot(w io.Writer) error
}

// bulkBuild is one way to bulk-build a dictionary over recs (4 satellite
// words), and the loader of its snapshots.
type bulkBuild struct {
	name  string
	build func(t *testing.T) (bulkBuilt, *pdm.Machine)
	load  func(r io.Reader) (bulkBuilt, *pdm.Machine, error)
}

// bulkBuilds lists Basic's BulkLoad in its three record layouts and
// Static's two constructions.
func bulkBuilds(recs []bucket.Record) []bulkBuild {
	basic := func(cfg BasicConfig) func(t *testing.T) (bulkBuilt, *pdm.Machine) {
		return func(t *testing.T) (bulkBuilt, *pdm.Machine) {
			cfg.Capacity, cfg.SatWords, cfg.Seed = len(recs), 4, 52
			bd, m := newBasic(t, 8, 32, cfg)
			if err := bd.BulkLoad(recs, bd.BlocksPerDisk(), 4); err != nil {
				t.Fatal(err)
			}
			return bd, m
		}
	}
	static := func(c StaticCase) func(t *testing.T) (bulkBuilt, *pdm.Machine) {
		return func(t *testing.T) (bulkBuilt, *pdm.Machine) {
			return buildStatic(t, 8, 32, StaticConfig{SatWords: 4, Case: c, Seed: 53}, recs)
		}
	}
	loadBasic := func(r io.Reader) (bulkBuilt, *pdm.Machine, error) { return LoadBasic(r) }
	loadStatic := func(r io.Reader) (bulkBuilt, *pdm.Machine, error) { return LoadStatic(r) }
	return []bulkBuild{
		{"basic", basic(BasicConfig{}), loadBasic},
		{"basic-replicas2", basic(BasicConfig{K: 2, Replicate: true}), loadBasic},
		{"basic-k4", basic(BasicConfig{K: 4}), loadBasic},
		{"static-case-a", static(CaseA), loadStatic},
		{"static-case-b", static(CaseB), loadStatic},
	}
}

// checkBuilt fails unless every key of recs answers with its satellite
// and every block of m verifies.
func checkBuilt(t *testing.T, what string, d bulkBuilt, m *pdm.Machine, recs []bucket.Record) {
	t.Helper()
	if bad := m.VerifyChecksums(); len(bad) != 0 {
		t.Errorf("%s: VerifyChecksums = %v", what, bad)
	}
	for _, r := range recs {
		if sat, ok := d.Lookup(r.Key); !ok || !slices.Equal(sat, r.Sat) {
			t.Fatalf("%s: key %d reads %v, %v; want %v", what, r.Key, sat, ok, r.Sat)
		}
	}
}

// reload round-trips d through its snapshot.
func reload(t *testing.T, c bulkBuild, d bulkBuilt) (bulkBuilt, *pdm.Machine) {
	t.Helper()
	var snap bytes.Buffer
	if err := d.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, rm, err := c.load(&snap)
	if err != nil {
		t.Fatal(err)
	}
	return restored, rm
}

// A bulk build leaves only the dictionary behind: Basic's BulkLoad and
// Static's construction release their sort scratch, so no block from the
// dictionary's BlocksPerDisk() onward stays materialized, while every
// key answers, every block verifies and a snapshot restores the
// dictionary.
func TestBulkBuildsLeaveOnlyTheDictionary(t *testing.T) {
	recs := makeRecords(600, 4, 51)
	for _, c := range bulkBuilds(recs) {
		t.Run(c.name, func(t *testing.T) {
			d, m := c.build(t)
			check := func(what string, d bulkBuilt, m *pdm.Machine) {
				t.Helper()
				if span := m.BlocksAllocated()[0]; span <= d.BlocksPerDisk() {
					t.Fatalf("%s: disk 0 spans %d blocks, the dictionary %d: the build used no scratch", what, span, d.BlocksPerDisk())
				}
				if held := materializedFrom(t, m, d.BlocksPerDisk()); len(held) != 0 {
					t.Errorf("%s: %d blocks past the dictionary's %d per disk stay materialized, first %v", what, len(held), d.BlocksPerDisk(), held[0])
				}
				checkBuilt(t, what, d, m, recs)
			}
			check("built", d, m)
			restored, rm := reload(t, c, d)
			check("restored", restored, rm)
		})
	}
}

// A bulk build compacts its machine: every block's slot holds exactly
// its used words, while every key answers and every block verifies.
// Updates after Basic's BulkLoad agree with an uncompacted twin's —
// the same build with each block moved back to a full slot by flipping
// its last bit twice — in their answers, blocks, checksums and Stats. A
// snapshot restores a compact machine of which all of this holds too.
func TestBulkBuildsAreCompact(t *testing.T) {
	recs := makeRecords(600, 4, 51)
	fresh := makeRecords(100, 4, 54)
	for _, c := range bulkBuilds(recs) {
		t.Run(c.name, func(t *testing.T) {
			for _, round := range []string{"built", "restored"} {
				d, m := c.build(t)
				twin, tm := c.build(t)
				if round == "restored" {
					d, m = reload(t, c, d)
					twin, tm = reload(t, c, twin)
				}
				checkCompact(t, round, m)
				checkBuilt(t, round, d, m, recs)
				checkBuilt(t, round+" twin", twin, tm, recs)
				bd, ok := d.(*BasicDict)
				if !ok {
					continue
				}
				if uncompact(tm) == 0 {
					t.Fatalf("%s: the twin holds no nonempty block", round)
				}
				updateTwins(t, round, bd, m, twin.(*BasicDict), tm, recs[:200], fresh)
			}
		})
	}
}

// checkCompact fails unless every block of m holds exactly its used
// words: its words up to the last nonzero one.
func checkCompact(t *testing.T, what string, m *pdm.Machine) {
	t.Helper()
	for disk, n := range m.BlocksAllocated() {
		for b := 0; b < n; b++ {
			a := pdm.Addr{Disk: disk, Block: b}
			blk := m.Peek(a)
			used := len(blk)
			for used > 0 && blk[used-1] == 0 {
				used--
			}
			if got := m.SlotWords(a); got != used {
				t.Fatalf("%s: block %v holds %d words, uses %d", what, a, got, used)
			}
		}
	}
}

// uncompact moves every nonempty block of m back to a full slot, leaving
// its content, its checksum and the machine's Stats as they were, and
// returns how many it moved.
func uncompact(m *pdm.Machine) (moved int) {
	last := uint(64*m.B() - 1)
	for disk, n := range m.BlocksAllocated() {
		for b := 0; b < n; b++ {
			if a := (pdm.Addr{Disk: disk, Block: b}); m.SlotWords(a) > 0 {
				m.FlipBit(a, last)
				m.FlipBit(a, last)
				moved++
			}
		}
	}
	return moved
}

// updateTwins deletes gone from both dictionaries, inserts fresh, and
// re-inserts half of gone with new satellites, failing when the two
// answer differently or end with different blocks, checksums or Stats.
func updateTwins(t *testing.T, what string, a *BasicDict, ma *pdm.Machine, b *BasicDict, mb *pdm.Machine, gone, fresh []bucket.Record) {
	t.Helper()
	if sa, sb := ma.Stats(), mb.Stats(); sa != sb {
		t.Fatalf("%s: twins start with Stats %+v and %+v", what, sa, sb)
	}
	for _, r := range gone {
		if da, db := a.Delete(r.Key), b.Delete(r.Key); !da || !db {
			t.Fatalf("%s: Delete(%d) = %v and %v", what, r.Key, da, db)
		}
	}
	back := make([]bucket.Record, 0, len(gone)/2)
	for _, r := range gone[:len(gone)/2] {
		sat := slices.Clone(r.Sat)
		sat[0]++
		back = append(back, bucket.Record{Key: r.Key, Sat: sat})
	}
	for _, r := range slices.Concat(fresh, back) {
		if ea, eb := a.Insert(r.Key, r.Sat), b.Insert(r.Key, r.Sat); ea != nil || eb != nil {
			t.Fatalf("%s: Insert(%d) = %v and %v", what, r.Key, ea, eb)
		}
		for _, d := range []*BasicDict{a, b} {
			if sat, ok := d.Lookup(r.Key); !ok || !slices.Equal(sat, r.Sat) {
				t.Fatalf("%s: key %d reads %v, %v after its insert; want %v", what, r.Key, sat, ok, r.Sat)
			}
		}
	}
	if sa, sb := ma.Stats(), mb.Stats(); sa != sb {
		t.Errorf("%s: after the updates Stats %+v and %+v", what, sa, sb)
	}
	if ba, bb := ma.VerifyChecksums(), mb.VerifyChecksums(); len(ba) != 0 || len(bb) != 0 {
		t.Errorf("%s: after the updates VerifyChecksums = %v and %v", what, ba, bb)
	}
	for disk, n := range mb.BlocksAllocated() {
		for blk := 0; blk < n; blk++ {
			addr := pdm.Addr{Disk: disk, Block: blk}
			if pa, pb := ma.Peek(addr), mb.Peek(addr); !slices.Equal(pa, pb) {
				t.Fatalf("%s: after the updates block %v reads %v and %v", what, addr, pa, pb)
			}
		}
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
