package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pdmdict/internal/fault"
	"pdmdict/internal/pdm"
)

// pinAllocs fails when a warm call of fn allocates more than want
// objects. It takes the median of single calls: sync.Pool may hand back
// a cold scratch after a collection, and under the race detector drops a
// quarter of its puts.
func pinAllocs(t *testing.T, name string, want float64, fn func()) {
	t.Helper()
	runs := make([]float64, 51)
	for i := range runs {
		runs[i] = testing.AllocsPerRun(1, fn)
	}
	sort.Float64s(runs)
	if got := runs[len(runs)/2]; got > want {
		t.Errorf("%s allocates %.0f objects per warm call, want at most %.0f", name, got, want)
	}
}

// The read path's allocation budget: a warm lookup allocates the
// satellite it returns and nothing else (a miss: nothing). The fault-aware
// path adds the machine's two per-batch bookkeeping objects, and a read
// of more than pdm's 32 inline blocks — d = 40 here — the partitioned
// path's per-disk closure.
func TestLookupAllocationPins(t *testing.T) {
	const n = 512
	recs := makeRecords(n, 2, 5)
	keys := make([]pdm.Word, 64)
	for i := range keys {
		keys[i] = recs[i].Key
	}
	const absent = pdm.Word(1<<48 + 1)

	// Workers: 1 keeps the 64-key batches (over 128 blocks) on the calling
	// goroutine: fanned out they cost a goroutine's few objects per worker,
	// a count that follows GOMAXPROCS.
	machine := func(d int) *pdm.Machine { return pdm.NewMachine(pdm.Config{D: d, B: 64, Workers: 1}) }
	basic, err := NewBasic(machine(20), BasicConfig{Capacity: n, SatWords: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := NewDynamic(machine(40), DynamicConfig{Capacity: n, SatWords: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	oneprobe, err := NewOneProbe(machine(40), OneProbeConfig{Capacity: n, SatWords: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		for _, d := range []interface {
			Insert(pdm.Word, []pdm.Word) error
		}{basic, dynamic, oneprobe} {
			if err := d.Insert(r.Key, r.Sat); err != nil {
				t.Fatal(err)
			}
		}
	}
	shallow := keys[0] // a key resident in A_1: the one-round path
	for _, k := range keys {
		before := dynamic.m.Stats().ParallelIOs
		dynamic.Lookup(k)
		if dynamic.m.Stats().ParallelIOs-before == 1 {
			shallow = k
			break
		}
	}

	pinAllocs(t, "Basic.Lookup hit", 1, func() {
		if _, ok := basic.Lookup(keys[3]); !ok {
			t.Fatal("stored key not found")
		}
	})
	pinAllocs(t, "Basic.Lookup miss", 0, func() {
		if _, ok := basic.Lookup(absent); ok {
			t.Fatal("absent key found")
		}
	})
	pinAllocs(t, "Basic.LookupTry fault-free hit", 3, func() {
		if _, ok, err := basic.LookupTry(keys[3]); !ok || err != nil {
			t.Fatal(ok, err)
		}
	})
	pinAllocs(t, "Dynamic.Lookup hit", 2, func() {
		if _, ok := dynamic.Lookup(shallow); !ok {
			t.Fatal("stored key not found")
		}
	})
	pinAllocs(t, "Dynamic.Lookup miss", 1, func() {
		if _, ok := dynamic.Lookup(absent); ok {
			t.Fatal("absent key found")
		}
	})
	pinAllocs(t, "OneProbe.Lookup hit", 2, func() {
		if _, ok := oneprobe.Lookup(keys[3]); !ok {
			t.Fatal("stored key not found")
		}
	})
	// A batch of 64 hits: 64 satellites, the two result slices, and one
	// closure per read round (Dynamic: up to two) — 1.05 objects per key.
	for _, b := range []struct {
		name   string
		want   float64
		lookup func([]pdm.Word) ([][]pdm.Word, []bool)
	}{
		{"Basic.LookupBatch×64", 67, basic.LookupBatch},
		{"Dynamic.LookupBatch×64", 68, dynamic.LookupBatch},
		{"OneProbe.LookupBatch×64", 67, oneprobe.LookupBatch},
	} {
		pinAllocs(t, b.name, b.want, func() {
			if _, oks := b.lookup(keys); !oks[0] || !oks[63] {
				t.Fatal("stored keys not found")
			}
		})
	}
}

// refLookup is the read path as it was before the in-place scan: every
// block decoded into records, fragments and touched stripes collected in
// maps. It is the reference findFragments and lookupInBlocks are checked
// against.
func refLookup(bd *BasicDict, x pdm.Word, flat [][]pdm.Word) (sat []pdm.Word, ok bool, touched map[int]bool) {
	frags := make(map[int][]pdm.Word)
	touched = make(map[int]bool)
	for b, blk := range flat {
		if blk == nil {
			continue
		}
		for _, rec := range bd.codec.Decode(blk) {
			if rec.Key == x {
				frags[bd.fragIndex(rec.Sat[0])] = rec.Sat[1:]
				touched[b/bd.cfg.BucketBlocks] = true
			}
		}
	}
	if bd.cfg.Replicate {
		for r := 0; r < bd.cfg.K; r++ {
			if f, has := frags[r]; has {
				return append([]pdm.Word{}, f[:bd.cfg.SatWords]...), true, touched
			}
		}
		return nil, false, touched
	}
	if len(frags) != bd.cfg.K {
		return nil, false, touched
	}
	sat = []pdm.Word{}
	for j := 0; j < bd.cfg.K; j++ {
		sat = append(sat, frags[j]...)
	}
	return sat[:bd.cfg.SatWords], true, touched
}

// Differential property: over three bucket layouts × three seeds ×
// K ∈ {1, d/2} × fragment and replicate mode, with blocks knocked out at
// random as failed degraded-mode reads leave them, the in-place scan
// answers exactly as the Decode-based reference does.
func TestInPlaceScanMatchesDecodeReference(t *testing.T) {
	const d, b, n = 8, 32, 120
	layouts := []struct {
		name string
		cfg  BasicConfig
	}{
		{"striped", BasicConfig{}},
		{"striped-2-blocks", BasicConfig{BucketBlocks: 2}},
		{"head-model", BasicConfig{HeadModel: true}},
	}
	for _, lay := range layouts {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, k := range []int{1, d / 2} {
				for _, replicate := range []bool{false, true} {
					if replicate && lay.cfg.HeadModel {
						continue // replication needs the striped layout
					}
					cfg := lay.cfg
					cfg.Capacity, cfg.SatWords, cfg.K, cfg.Replicate, cfg.Seed = n, 3, k, replicate, seed
					t.Run(fmt.Sprintf("%s/seed=%d/k=%d/replicate=%v", lay.name, seed, k, replicate), func(t *testing.T) {
						checkScanAgainstReference(t, d, b, cfg)
					})
				}
			}
		}
	}
}

func checkScanAgainstReference(t *testing.T, d, b int, cfg BasicConfig) {
	bd, m := newBasic(t, d, b, cfg)
	rng := rand.New(rand.NewSource(int64(cfg.Seed)*31 + int64(cfg.K)))
	recs := makeRecords(cfg.Capacity, cfg.SatWords, int64(cfg.Seed))
	for i, r := range recs {
		if err := bd.Insert(r.Key, r.Sat); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < len(recs); i += 7 { // updates and deletes reshuffle buckets
		if i%2 == 0 {
			bd.Delete(recs[i].Key)
		} else if err := bd.Insert(recs[i].Key, []pdm.Word{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	sc := new(probeScratch)
	hits := 0
	for trial := 0; trial < 400; trial++ {
		x := recs[rng.Intn(len(recs))].Key
		if trial%5 == 0 {
			x = pdm.Word(rng.Uint64()>>16) | 1<<50 // absent
		}
		flat := m.BatchRead(bd.probeAddrs(sc, x, nil))
		if trial%2 == 1 {
			for i := range flat { // failed reads
				if rng.Intn(4) == 0 {
					flat[i] = nil
				}
			}
		}
		wantSat, wantOK, wantTouched := refLookup(bd, x, flat)
		gotSat, gotOK := bd.lookupInBlocks(sc, x, flat, nil)
		if gotOK != wantOK || fmt.Sprint(gotSat) != fmt.Sprint(wantSat) {
			t.Fatalf("key %d: scan = %v, %v; reference = %v, %v", x, gotSat, gotOK, wantSat, wantOK)
		}
		touched := make([]bool, d)
		bd.findFragments(x, flat, sc.fragSlots(cfg.K), touched)
		for i, got := range touched {
			if got != wantTouched[i] {
				t.Fatalf("key %d stripe %d: scan touched = %v, reference = %v", x, i, got, wantTouched[i])
			}
		}
		if gotOK {
			hits++
		}
	}
	if hits < 100 {
		t.Fatalf("only %d of 400 trials hit; the comparison is not exercising the scan", hits)
	}
}

// poisonWord fills everything a scratch owns once it is released.
const poisonWord = pdm.Word(0xdead_dead_dead_dead)

// poison overwrites every piece of memory sc owns with a sentinel, the
// block arena included — through the buffer's own next read, of a
// machine whose blocks are all sentinel.
func (sc *probeScratch) poison(sentinel *pdm.Machine, blocks []pdm.Addr) {
	bad := pdm.Addr{Disk: -7, Block: -7}
	ns := sc.ns[:cap(sc.ns)]
	for i := range ns {
		ns[i] = -7
	}
	for _, as := range [][]pdm.Addr{sc.one[:cap(sc.one)], sc.r1.addrs[:cap(sc.r1.addrs)], sc.r2.addrs[:cap(sc.r2.addrs)]} {
		for i := range as {
			as[i] = bad
		}
	}
	sc.memb[0] = poisonWord
	sentinel.BatchReadInto(&sc.buf, nil, nil, blocks)
}

// addrCopier retains a copy of every batch's addresses, as the hook
// contract (Event.Addrs is valid only during the call) requires.
type addrCopier struct {
	mu    sync.Mutex
	addrs [][]pdm.Addr
}

func (h *addrCopier) Event(e pdm.Event) {
	if len(e.Addrs) == 0 {
		return
	}
	cp := append([]pdm.Addr(nil), e.Addrs...)
	h.mu.Lock()
	h.addrs = append(h.addrs, cp)
	h.mu.Unlock()
}

// Aliasing: 8 clients look up through every read-only entry point while
// each poisons a pooled scratch after every call. Nothing a caller got
// back, and no address list a hook copied, may change afterwards — they
// never point into pooled memory. Run under -race -cpu=1,2,4.
func TestReturnedDataNeverAliasesScratch(t *testing.T) {
	const clients, n, rounds = 8, 256, 60
	recs := makeRecords(n, 3, 9)
	want := make(map[pdm.Word][]pdm.Word, n)
	for _, r := range recs {
		want[r.Key] = r.Sat
	}

	bm := pdm.NewMachine(pdm.Config{D: 8, B: 32})
	basic, err := NewBasic(bm, BasicConfig{Capacity: n, SatWords: 3, K: 2, Replicate: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dm := pdm.NewMachine(pdm.Config{D: 40, B: 32})
	dynamic, err := NewDynamic(dm, DynamicConfig{Capacity: n, SatWords: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := basic.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
		if err := dynamic.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
	}
	plan := fault.NewPlan(1)
	plan.FailDisk(2)
	bm.SetFaultInjector(plan)
	bhook, dhook := new(addrCopier), new(addrCopier)
	bm.SetHook(bhook)
	dm.SetHook(dhook)

	// The sentinel machine: enough all-poison blocks to cover the widest
	// arena a client's batch of 8 keys can have grown.
	sentinel := pdm.NewMachine(pdm.Config{D: 40, B: 32})
	var poisonBlocks []pdm.Addr
	blk := make([]pdm.Word, 32)
	for i := range blk {
		blk[i] = poisonWord
	}
	for disk := 0; disk < 40; disk++ {
		for b := 0; b < 8; b++ {
			a := pdm.Addr{Disk: disk, Block: b}
			sentinel.WriteBlock(a, blk)
			poisonBlocks = append(poisonBlocks, a)
		}
	}

	type answer struct {
		key pdm.Word
		sat []pdm.Word
	}
	answers := make([][]answer, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			keep := func(k pdm.Word, sat []pdm.Word, ok bool) {
				if !ok {
					t.Errorf("client %d: stored key %d not found", c, k)
					return
				}
				answers[c] = append(answers[c], answer{k, sat})
			}
			for r := 0; r < rounds; r++ {
				k := recs[rng.Intn(n)].Key
				batch := make([]pdm.Word, 8)
				for i := range batch {
					batch[i] = recs[rng.Intn(n)].Key
				}
				switch r % 5 {
				case 0:
					sat, ok := basic.LookupOp(bm.NewOp(c, 1), k)
					keep(k, sat, ok)
				case 1:
					sat, ok, err := basic.LookupTryOp(bm.NewOp(c, 1), k)
					if err != nil {
						t.Errorf("client %d: LookupTry(%d): %v", c, k, err)
					}
					keep(k, sat, ok)
				case 2:
					sats, oks := basic.LookupBatchOp(bm.NewOp(c, len(batch)), batch)
					for i := range batch {
						keep(batch[i], sats[i], oks[i])
					}
				case 3:
					sat, ok := dynamic.LookupOp(dm.NewOp(c, 1), k)
					keep(k, sat, ok)
				case 4:
					sats, oks := dynamic.LookupBatchOp(dm.NewOp(c, len(batch)), batch)
					for i := range batch {
						keep(batch[i], sats[i], oks[i])
					}
				}
				for _, pool := range []*scratchPool{&basic.scratch, &dynamic.scratch} {
					sc := pool.get() // an idle scratch: released, so poisoned
					sc.poison(sentinel, poisonBlocks)
					pool.put(sc)
				}
			}
		}(c)
	}
	wg.Wait()

	for c, as := range answers {
		for _, a := range as {
			if fmt.Sprint(a.sat) != fmt.Sprint(want[a.key]) {
				t.Fatalf("client %d key %d: satellite now reads %x, want %x", c, a.key, a.sat, want[a.key])
			}
		}
	}
	for name, h := range map[string]*addrCopier{"basic": bhook, "dynamic": dhook} {
		if len(h.addrs) == 0 {
			t.Fatalf("%s hook saw no batches", name)
		}
		for _, as := range h.addrs {
			for _, a := range as {
				if a.Disk < 0 || a.Disk >= 40 || a.Block < 0 {
					t.Fatalf("%s hook: copied address list now holds %v", name, a)
				}
			}
		}
	}
}
