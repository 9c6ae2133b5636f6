package pdmdict

import (
	"math/rand"
	"testing"

	"pdmdict/internal/pdm"
)

// All public constructors must satisfy Dictionary.
var (
	_ Dictionary = (*Dict)(nil)
	_ Dictionary = (*Basic)(nil)
	_ Dictionary = (*Static)(nil)
	_ Dictionary = (*Dynamic)(nil)
	_ Dictionary = (*HashTable)(nil)
	_ Dictionary = (*Cuckoo)(nil)
	_ Dictionary = (*TwoLevel)(nil)
	_ Dictionary = (*BTree)(nil)
	_ Dictionary = (*OneProbe)(nil)
	_ Dictionary = (*Direct)(nil)
)

func TestPublicHeadModelBasic(t *testing.T) {
	d, err := NewBasic(BasicOptions{
		Options:   Options{Capacity: 100, SatWords: 1, Seed: 12},
		HeadModel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := d.Insert(Word(i*3+1), []Word{Word(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := d.IOStats().ParallelIOs
	for i := 0; i < 100; i++ {
		if !d.Contains(Word(i*3 + 1)) {
			t.Fatal("key lost in head model")
		}
	}
	if got := d.IOStats().ParallelIOs - before; got != 100 {
		t.Errorf("100 head-model lookups cost %d parallel I/Os, want 100", got)
	}
}

func TestPublicOneProbeUnbounded(t *testing.T) {
	d, err := NewOneProbeUnbounded(Options{Capacity: 64, SatWords: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := d.Insert(Word(i*5+1), []Word{Word(i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if d.Len() != 300 {
		t.Fatalf("Len = %d", d.Len())
	}
	// Lookups stay 1 parallel I/O across growth under the wrapper's
	// parallel cost model.
	before := d.IOStats().ParallelIOs
	for i := 0; i < 300; i++ {
		if !d.Contains(Word(i*5 + 1)) {
			t.Fatal("key lost")
		}
	}
	if got := d.IOStats().ParallelIOs - before; got != 300 {
		t.Errorf("300 lookups cost %d parallel I/Os, want 300", got)
	}
}

func TestPublicDirectAndBatch(t *testing.T) {
	d, err := NewDirect(Options{Universe: 512, SatWords: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(100, []Word{1}); err != nil {
		t.Fatal(err)
	}
	if sat, ok := d.Lookup(100); !ok || sat[0] != 1 {
		t.Fatalf("direct lookup = %v %v", sat, ok)
	}
	if _, err := NewDirect(Options{SatWords: 1}); err == nil {
		t.Error("NewDirect without Universe accepted")
	}

	b, err := NewBasic(BasicOptions{Options: Options{Capacity: 100, SatWords: 1, Seed: 10}})
	if err != nil {
		t.Fatal(err)
	}
	b.Insert(5, []Word{55})
	b.Insert(6, []Word{66})
	sats, oks := b.LookupBatch([]Word{5, 6, 7, 5})
	if !oks[0] || !oks[1] || oks[2] || !oks[3] {
		t.Fatalf("batch oks = %v", oks)
	}
	if sats[0][0] != 55 || sats[3][0] != 55 || sats[1][0] != 66 {
		t.Fatalf("batch sats = %v", sats)
	}
}

func TestPublicAPISmoke(t *testing.T) {
	opts := Options{Capacity: 500, SatWords: 2, Seed: 1}
	dicts := map[string]Dictionary{}

	if d, err := New(opts); err != nil {
		t.Fatalf("New: %v", err)
	} else {
		dicts["dict"] = d
	}
	if d, err := NewBasic(BasicOptions{Options: opts}); err != nil {
		t.Fatalf("NewBasic: %v", err)
	} else {
		dicts["basic"] = d
	}
	if d, err := NewDynamic(opts); err != nil {
		t.Fatalf("NewDynamic: %v", err)
	} else {
		dicts["dynamic"] = d
	}
	if d, err := NewHashTable(opts); err != nil {
		t.Fatalf("NewHashTable: %v", err)
	} else {
		dicts["hash"] = d
	}
	if d, err := NewCuckoo(opts); err != nil {
		t.Fatalf("NewCuckoo: %v", err)
	} else {
		dicts["cuckoo"] = d
	}
	if d, err := NewTwoLevel(opts); err != nil {
		t.Fatalf("NewTwoLevel: %v", err)
	} else {
		dicts["twolevel"] = d
	}
	if d, err := NewBTree(BTreeOptions{Options: opts}); err != nil {
		t.Fatalf("NewBTree: %v", err)
	} else {
		dicts["btree"] = d
	}

	rng := rand.New(rand.NewSource(2))
	keys := make([]Word, 300)
	vals := make([][]Word, 300)
	for i := range keys {
		keys[i] = rng.Uint64() % (1 << 40)
		vals[i] = []Word{Word(i), Word(i * 2)}
	}
	for name, d := range dicts {
		for i, k := range keys {
			if err := d.Insert(k, vals[i]); err != nil {
				t.Fatalf("%s: insert %d: %v", name, i, err)
			}
		}
		for i, k := range keys {
			sat, ok := d.Lookup(k)
			if !ok || sat[0] != vals[i][0] || sat[1] != vals[i][1] {
				t.Fatalf("%s: key %d = %v %v", name, k, sat, ok)
			}
		}
		if d.Contains(1 << 50) {
			t.Fatalf("%s: phantom key", name)
		}
		if !d.Delete(keys[0]) || d.Contains(keys[0]) {
			t.Fatalf("%s: delete failed", name)
		}
		if d.IOStats().ParallelIOs == 0 {
			t.Fatalf("%s: no I/O recorded", name)
		}
	}
}

func TestPublicStatic(t *testing.T) {
	recs := make([]Record, 200)
	rng := rand.New(rand.NewSource(3))
	for i := range recs {
		recs[i] = Record{Key: rng.Uint64() % (1 << 40), Sat: []Word{Word(i)}}
	}
	for _, caseA := range []bool{false, true} {
		s, err := BuildStatic(StaticOptions{
			Options: Options{Capacity: 200, SatWords: 1, Degree: 12, Seed: 4},
			CaseA:   caseA,
		}, recs)
		if err != nil {
			t.Fatalf("BuildStatic(caseA=%v): %v", caseA, err)
		}
		for i, r := range recs {
			if sat, ok := s.Lookup(r.Key); !ok || sat[0] != Word(i) {
				t.Fatalf("caseA=%v: key %d = %v %v", caseA, r.Key, sat, ok)
			}
		}
		if s.ConstructionIOs() == 0 {
			t.Error("no construction I/Os recorded")
		}
		if err := s.Insert(1, []Word{1}); err == nil {
			t.Error("static Insert succeeded")
		}
		if s.Delete(recs[0].Key) {
			t.Error("static Delete succeeded")
		}
	}
}

func TestDictWorstCaseAccessors(t *testing.T) {
	d, err := New(Options{Capacity: 64, SatWords: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := d.Insert(Word(i*13+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if d.Ops() != 400 {
		t.Errorf("Ops = %d", d.Ops())
	}
	if d.Rebuilds() == 0 {
		t.Error("no rebuilds after 6x growth")
	}
	if d.WorstOpIOs() == 0 || d.WorstOpIOs() > 60 {
		t.Errorf("WorstOpIOs = %d", d.WorstOpIOs())
	}
}

func TestPublicBulkLoad(t *testing.T) {
	b, err := NewBasic(BasicOptions{Options: Options{Capacity: 500, SatWords: 1, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 500)
	for i := range recs {
		recs[i] = Record{Key: Word(i*17 + 1), Sat: []Word{Word(i)}}
	}
	if err := b.BulkLoad(recs); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	if b.Len() != 500 {
		t.Fatalf("Len = %d", b.Len())
	}
	bulkIOs := b.IOStats().ParallelIOs
	for i, r := range recs {
		if sat, ok := b.Lookup(r.Key); !ok || sat[0] != Word(i) {
			t.Fatalf("key %d = %v %v", r.Key, sat, ok)
		}
	}
	// Sanity: the load was far cheaper than 2 I/Os per key.
	if bulkIOs >= 2*500 {
		t.Errorf("bulk load cost %d I/Os for 500 keys", bulkIOs)
	}
}

func TestDictionariesBalanceDiskTraffic(t *testing.T) {
	// The striped layout must spread lookup traffic evenly: every disk
	// serves exactly one block per one-probe lookup.
	b, err := NewBasic(BasicOptions{Options: Options{Capacity: 300, SatWords: 1, Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		b.Insert(Word(i*13+5), []Word{1})
	}
	b.ResetIOStats()
	for i := 0; i < 300; i++ {
		b.Contains(Word(i*13 + 5))
	}
	per := b.Machine().PerDiskIOs()
	for i := 1; i < len(per); i++ {
		if per[i] != per[0] {
			t.Fatalf("lookup traffic skewed across disks: %v", per)
		}
	}
	if per[0] != 300 {
		t.Errorf("disk 0 served %d transfers, want 300", per[0])
	}
}

func TestResetIOStats(t *testing.T) {
	b, err := NewBasic(BasicOptions{Options: Options{Capacity: 10, Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	b.Insert(1, nil)
	b.ResetIOStats()
	if b.IOStats().ParallelIOs != 0 {
		t.Error("reset did not zero the counters")
	}
	if !b.Contains(1) {
		t.Error("reset destroyed data")
	}
}

// flakyOnce fails the first read of every block on disks [lo, hi)
// transiently; the block's next read gets through.
type flakyOnce struct {
	lo, hi int
	seen   map[Addr]bool
}

func (f *flakyOnce) Access(kind pdm.EventKind, a Addr) Fault {
	if kind != pdm.EventRead || a.Disk < f.lo || a.Disk >= f.hi || f.seen[a] {
		return Fault{}
	}
	f.seen[a] = true
	return Fault{Kind: FaultTransient}
}

// Dynamic.LookupTry re-issues only blocks the key's answer needs. The
// first round reads the membership buckets (disks [0, d)) and the first
// retrieval level's fields (disks [d, 2d)). With every level block
// failing once, an absent key is settled by its membership blocks
// alone, so it costs one parallel I/O and no retry; a key stored on the
// first level needs its fields there, so it pays one retry round.
func TestDynamicLookupTryRetriesOnlyNeededBlocks(t *testing.T) {
	const degree, n = 20, 200
	dyn, err := NewDynamic(Options{Capacity: n, SatWords: 1, Degree: degree, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	keys := make([]Word, n/2)
	for i := range keys {
		keys[i] = Word(rng.Uint64() >> 2) // below 2^62: absent is never stored
		if err := dyn.Insert(keys[i], []Word{keys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	absent := Word(1 << 62)
	shallow := keys[0] // a key whose fault-free lookup is one round
	for _, k := range keys {
		before := dyn.IOStats().ParallelIOs
		dyn.Lookup(k)
		if dyn.IOStats().ParallelIOs-before == 1 {
			shallow = k
			break
		}
	}

	for _, c := range []struct {
		name    string
		key     Word
		ok      bool
		retries int64
		ios     int64
	}{
		{"absent key, level fields unneeded", absent, false, 0, 1},
		{"first-level key, its fields needed", shallow, true, 1, 2},
	} {
		dyn.SetFaultInjector(&flakyOnce{lo: degree, hi: 2 * degree, seen: map[Addr]bool{}})
		retries := dyn.Health().Retries
		before := dyn.IOStats().ParallelIOs
		sat, ok, err := dyn.LookupTry(c.key)
		if err != nil || ok != c.ok || (ok && sat[0] != c.key) {
			t.Fatalf("%s: LookupTry = %v, %v, %v", c.name, sat, ok, err)
		}
		if got := dyn.Health().Retries - retries; got != c.retries {
			t.Errorf("%s: %d retry batches, want %d", c.name, got, c.retries)
		}
		if got := dyn.IOStats().ParallelIOs - before; got != c.ios {
			t.Errorf("%s: %d parallel I/Os, want %d", c.name, got, c.ios)
		}
	}
}
