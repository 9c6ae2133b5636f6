package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pdmdict/internal/bucket"
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

// The allocation budget: a warm lookup allocates the satellite it returns
// and nothing else (a miss: nothing), and a warm update nothing at all.
// The fault-aware path costs the same, with a disk down or a round
// retried: its draws, outcomes and errors live in the machine's pooled
// scratch and the probe scratch's buffers. A read of more than pdm's 32
// inline blocks — d = 40 here — costs no more, since the partitioned
// path's per-disk bodies are plain functions; a Dict operation's own
// token is recycled when it returns. A hook adds nothing:
// the hooked rows cost what they do unhooked, so pdm's span machinery is
// free once warm and a hook's cost is its consumers' alone.
func TestAllocationPins(t *testing.T) {
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
	// One slot above the preload, so no insert below starts a migration.
	dict, err := NewDict(DictConfig{InitialCapacity: n + 1, SatWords: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dict.active.base().m.SetParallelism(1)
	for _, r := range recs {
		for _, d := range []interface {
			Insert(pdm.Word, []pdm.Word) error
		}{basic, dynamic, oneprobe, dict} {
			if err := d.Insert(r.Key, r.Sat); err != nil {
				t.Fatal(err)
			}
		}
	}
	shallow := recs[0] // a key resident in A_1: the one-round path
	for _, r := range recs[:len(keys)] {
		before := dynamic.m.Stats().ParallelIOs
		dynamic.Lookup(r.Key)
		if dynamic.m.Stats().ParallelIOs-before == 1 {
			shallow = r
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
	pinAllocs(t, "Basic.LookupTry fault-free hit", 1, func() {
		if _, ok, err := basic.LookupTry(keys[3]); !ok || err != nil {
			t.Fatal(ok, err)
		}
	})
	replicated, err := NewBasic(machine(20), BasicConfig{Capacity: n, SatWords: 2, K: 2, Replicate: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := replicated.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
	}
	// A lookup retries only blocks its answer still needs, so the retried
	// transient is on the disk of keys[3]'s only live copy: the other
	// replica's disk is down.
	var copies []int
	for _, a := range replicated.probeAddrs(new(probeScratch), keys[3], nil) {
		if _, _, ok := replicated.codec.Next(replicated.reg.m.Peek(a), keys[3], 0); ok {
			copies = append(copies, a.Disk)
		}
	}
	if len(copies) != 2 {
		t.Fatalf("keys[3] has copies on disks %v, want two", copies)
	}
	for _, f := range []struct {
		name string
		fi   pdm.FaultInjector
	}{
		{"one disk fail-stopped", failStop(4)},
		{"a transient retried", &downAndFlaky{failStop(copies[0]), flakyDisk{disk: copies[1]}}},
	} {
		replicated.reg.m.SetFaultInjector(f.fi)
		pinAllocs(t, "Basic.LookupTry replicated hit, "+f.name, 1, func() {
			if _, ok, err := replicated.LookupTry(keys[3]); !ok || err != nil {
				t.Fatal(ok, err)
			}
		})
	}
	if h := replicated.reg.m.Health(); h.Retries == 0 || h.Disks[4].State != pdm.Failed {
		t.Fatalf("the faulted rows ran no retry or left disk 4 %v", h.Disks[4].State)
	}
	pinAllocs(t, "Dynamic.Lookup hit", 1, func() {
		if _, ok := dynamic.Lookup(shallow.Key); !ok {
			t.Fatal("stored key not found")
		}
	})
	pinAllocs(t, "Dynamic.Lookup miss", 0, func() {
		if _, ok := dynamic.Lookup(absent); ok {
			t.Fatal("absent key found")
		}
	})
	pinAllocs(t, "OneProbe.Lookup hit", 1, func() {
		if _, ok := oneprobe.Lookup(keys[3]); !ok {
			t.Fatal("stored key not found")
		}
	})
	pinAllocs(t, "OneProbe.LookupTry fault-free hit", 1, func() {
		if _, ok, err := oneprobe.LookupTry(keys[3]); !ok || err != nil {
			t.Fatal(ok, err)
		}
	})
	for _, cs := range []StaticCase{CaseA, CaseB} {
		sd, err := BuildStatic(machine(20), StaticConfig{SatWords: 2, Case: cs, Seed: 1}, recs)
		if err != nil {
			t.Fatal(err)
		}
		pinAllocs(t, "Static.Lookup hit, "+cs.String(), 1, func() {
			if _, ok := sd.Lookup(keys[3]); !ok {
				t.Fatal("stored key not found")
			}
		})
		pinAllocs(t, "Static.Lookup miss, "+cs.String(), 0, func() {
			if _, ok := sd.Lookup(absent); ok {
				t.Fatal("absent key found")
			}
		})
	}
	// The scheduler's shape: a shared round of 8 tokens into results the
	// caller owns costs its 8 satellites, on Dynamic and through the
	// Dict's routing alike.
	shared := make([]*pdm.Op, 8)
	for i := range shared {
		shared[i] = pdm.MakeOp(uint64(i+1), i, 1)
	}
	sats, oks := make([][]pdm.Word, 8), make([]bool, 8)
	for _, s := range []struct {
		name   string
		lookup batchInto
	}{
		{"Dynamic shared round×8", dynamic.LookupBatchInto},
		{"Dict shared round×8", dict.LookupBatchInto},
	} {
		pinAllocs(t, s.name, 8, func() {
			if s.lookup(nil, shared, keys[:8], sats, oks); !oks[0] || !oks[7] {
				t.Fatal("stored keys not found")
			}
		})
	}
	// A batch of 64 hits into empty caller entries: 64 satellites, in
	// one read round or two — one object per key.
	empty, emptyOks := make([][]pdm.Word, len(keys)), make([]bool, len(keys))
	for _, b := range []struct {
		name   string
		lookup batchInto
	}{
		{"Basic", basic.LookupBatchInto},
		{"Dynamic", dynamic.LookupBatchInto},
		{"OneProbe", oneprobe.LookupBatchInto},
	} {
		pinAllocs(t, b.name+".LookupBatchInto×64 into empty entries", 64, func() {
			clear(empty)
			if b.lookup(nil, nil, keys, empty, emptyOks); !emptyOks[0] || !emptyOks[63] {
				t.Fatal("stored keys not found")
			}
		})
	}
	// Into caller entries with room for the satellite, the same batch
	// allocates nothing: every answer is written into its own entry.
	buf, warm, warmOks := make([]pdm.Word, 2*len(keys)), make([][]pdm.Word, len(keys)), make([]bool, len(keys))
	for _, b := range []struct {
		name   string
		lookup batchInto
	}{
		{"Basic", basic.LookupBatchInto},
		{"Dynamic", dynamic.LookupBatchInto},
		{"OneProbe", oneprobe.LookupBatchInto},
		{"Dict", dict.LookupBatchInto},
	} {
		pinAllocs(t, b.name+".LookupBatchInto×64 into caller entries", 0, func() {
			for i := range warm {
				warm[i] = buf[2*i : 2*i : 2*i+2]
			}
			if b.lookup(nil, nil, keys, warm, warmOks); !warmOks[0] || !warmOks[63] || &warm[63][0] != &buf[126] {
				t.Fatal("stored keys not found in the caller's entries")
			}
		})
	}

	// Updates read into the scratch and write the blocks they read: an
	// update of an existing key, and a delete with its re-insert, cost
	// nothing, on the Dict too, whose tokens are recycled, and on a
	// bulk-loaded Basic, whose compacted blocks the rewrite still fits
	// (the first re-insert into a fuller bucket moves that block to a
	// full slot, once).
	bulk, err := NewBasic(machine(20), BasicConfig{Capacity: n, SatWords: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(recs, bulk.BlocksPerDisk(), 8); err != nil {
		t.Fatal(err)
	}
	for _, u := range []struct {
		name        string
		update, del int
		d           updater
		rec         bucket.Record
	}{
		{"Basic", 0, 0, basic, recs[3]},
		{"Dynamic (shallow key)", 0, 0, dynamic, shallow},
		{"OneProbe", 0, 0, oneprobe, recs[3]},
		{"Dict", 0, 0, dict, recs[3]},
		{"Basic after BulkLoad", 0, 0, bulk, recs[3]},
	} {
		pinAllocs(t, u.name+".Insert existing", float64(u.update), func() {
			if err := u.d.Insert(u.rec.Key, u.rec.Sat); err != nil {
				t.Fatal(err)
			}
		})
		pinAllocs(t, u.name+".Delete+Insert", float64(u.del), func() {
			if !u.d.Delete(u.rec.Key) {
				t.Fatal("stored key not deleted")
			}
			if err := u.d.Insert(u.rec.Key, u.rec.Sat); err != nil {
				t.Fatal(err)
			}
		})
	}

	// A satellite its caller built on the stack stays there: the Dict
	// reaches its structure's insert by static calls.
	pinAllocs(t, "Dict.InsertOp existing, stack satellite", 0, func() {
		s := [2]pdm.Word{recs[3].Sat[0], recs[3].Sat[1]}
		if err := dict.InsertOp(nil, recs[3].Key, s[:]); err != nil {
			t.Fatal(err)
		}
	})

	// With a no-op hook installed, every row below costs exactly what it
	// does unhooked: a span's end is a value, a token's span stack is
	// borrowed from the machine and handed back, and nested span paths
	// ("insert.probe") are interned. A row with a fresh token adds the
	// token; the Dict recycles the one it mints per operation.
	hooked := []struct {
		name string
		want float64
		fn   func()
	}{
		{"Basic.Lookup hit", 1, func() { basic.Lookup(keys[3]) }},
		{"Basic.LookupOp hit, fresh token", 2, func() { basic.LookupOp(pdm.MakeOp(1, 0, 1), keys[3]) }},
		{"Basic.Insert existing", 0, func() { basic.Insert(recs[3].Key, recs[3].Sat) }},
		{"Basic.InsertOp existing, fresh token", 1, func() { basic.InsertOp(pdm.MakeOp(1, 0, 1), recs[3].Key, recs[3].Sat) }},
		{"Dynamic.Lookup hit", 1, func() { dynamic.Lookup(shallow.Key) }},
		{"Dynamic.LookupOp hit, fresh token", 2, func() { dynamic.LookupOp(pdm.MakeOp(1, 0, 1), shallow.Key) }},
		{"Dynamic.Insert existing", 0, func() { dynamic.Insert(shallow.Key, shallow.Sat) }},
		{"Dynamic.InsertOp existing, fresh token", 1, func() { dynamic.InsertOp(pdm.MakeOp(1, 0, 1), shallow.Key, shallow.Sat) }},
		{"Dict.Lookup hit", 1, func() { dict.Lookup(keys[3]) }},
		{"Dict.Insert existing", 0, func() { dict.Insert(recs[3].Key, recs[3].Sat) }},
	}
	for _, h := range []pdm.Hook{nil, nopHook{}} {
		basic.reg.m.SetHook(h)
		dynamic.m.SetHook(h)
		dict.SetHook(h)
		for _, r := range hooked {
			name := r.name
			if h != nil {
				name += " hooked"
			}
			pinAllocs(t, name, r.want, r.fn)
		}
	}
	if dict.Migrating() {
		t.Fatal("the update rows started a migration")
	}
}

// nopHook observes nothing, so a hooked operation's cost is the span
// machinery's own.
type nopHook struct{}

func (nopHook) Event(pdm.Event) {}

// failStop fail-stops one disk.
type failStop int

func (d failStop) Access(_ pdm.EventKind, a pdm.Addr) pdm.Fault {
	if a.Disk == int(d) {
		return pdm.Fault{Kind: pdm.FaultFailStop}
	}
	return pdm.Fault{}
}

// flakyDisk fails every other access to one disk transiently: a lookup's
// probe fails there and its one retry round succeeds.
type flakyDisk struct {
	disk, n int
}

func (f *flakyDisk) Access(_ pdm.EventKind, a pdm.Addr) pdm.Fault {
	if a.Disk != f.disk {
		return pdm.Fault{}
	}
	f.n++
	if f.n%2 == 1 {
		return pdm.Fault{Kind: pdm.FaultTransient}
	}
	return pdm.Fault{}
}

// downAndFlaky fail-stops one disk and fails every other access to
// another transiently.
type downAndFlaky struct {
	down  failStop
	flaky flakyDisk
}

func (f *downAndFlaky) Access(kind pdm.EventKind, a pdm.Addr) pdm.Fault {
	if a.Disk == int(f.down) {
		return f.down.Access(kind, a)
	}
	return f.flaky.Access(kind, a)
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
	sentinel.BatchReadInto(&sc.buf2, nil, nil, blocks)
	for i := range sc.retries.bufs {
		sentinel.BatchReadInto(&sc.retries.bufs[i], nil, nil, blocks)
	}
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

// Aliasing: 8 clients look up through every read-only entry point, and
// update through Insert and Delete, while each poisons a pooled scratch
// after every call. Nothing a caller got back, and no address list a hook
// copied, may change afterwards — they never point into pooled memory —
// and an update keeps no hold on the satellite it was handed, which the
// client poisons on return. That includes the error of an inconclusive
// fault-aware lookup, made by taking two disks of a two-replica Basic
// down: each client holds its errors to the end. Run under -race
// -cpu=1,2,4.
func TestReturnedDataNeverAliasesScratch(t *testing.T) {
	const clients, n, rounds = 8, 256, 70
	recs := makeRecords(n, 3, 9)
	want := make(map[pdm.Word][]pdm.Word, n)
	for _, r := range recs {
		want[r.Key] = r.Sat
	}

	bm := pdm.NewMachine(pdm.Config{D: 8, B: 32})
	// Capacity for every client's private key on top of the shared ones.
	basic, err := NewBasic(bm, BasicConfig{Capacity: n + clients, SatWords: 3, K: 2, Replicate: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Two disks down: the keys with both replicas there, and every absent
	// key, are inconclusive.
	brokenM := pdm.NewMachine(pdm.Config{D: 8, B: 32})
	broken, err := NewBasic(brokenM, BasicConfig{Capacity: n, SatWords: 3, K: 2, Replicate: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dm := pdm.NewMachine(pdm.Config{D: 40, B: 32})
	dynamic, err := NewDynamic(dm, DynamicConfig{Capacity: n + clients, SatWords: 3, Seed: 3})
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
		if err := broken.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
	}
	plan := fault.NewPlan(1)
	plan.FailDisk(2)
	bm.SetFaultInjector(plan)
	twoDown := fault.NewPlan(1)
	twoDown.FailDisk(2)
	twoDown.FailDisk(5)
	brokenM.SetFaultInjector(twoDown)
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
	// An inconclusive lookup's error, and a copy of its failed blocks.
	type heldError struct {
		be   *pdm.BatchError
		want []pdm.BlockError
	}
	held := make([][]heldError, clients)
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
				// update stores sat under x through insert, poisons the
				// caller's copy, and checks the stored value survived.
				update := func(insert func(*pdm.Op, pdm.Word, []pdm.Word) error, lookup func(*pdm.Op, pdm.Word) ([]pdm.Word, bool), m *pdm.Machine, x pdm.Word, sat []pdm.Word) {
					buf := append([]pdm.Word(nil), sat...)
					if err := insert(m.NewOp(c, 1), x, buf); err != nil {
						t.Errorf("client %d: Insert(%d): %v", c, x, err)
						return
					}
					for i := range buf {
						buf[i] = poisonWord
					}
					if got, ok := lookup(m.NewOp(c, 1), x); !ok || fmt.Sprint(got) != fmt.Sprint(sat) {
						t.Errorf("client %d: key %d reads %x, %v after its insert, want %x", c, x, got, ok, sat)
					}
				}
				// hold keeps an inconclusive lookup's error to the end.
				hold := func(err error) {
					be, ok := pdm.AsBatchError(err)
					if !ok || len(be.Blocks) == 0 {
						t.Errorf("client %d: inconclusive lookup returned %v", c, err)
						return
					}
					held[c] = append(held[c], heldError{be, append([]pdm.BlockError(nil), be.Blocks...)})
				}
				own := pdm.Word(1<<50 + c) // this client's private key
				switch r % 9 {
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
					sats, oks := batchInto(basic.LookupBatchInto).results(bm.NewOp(c, len(batch)), nil, batch)
					for i := range batch {
						keep(batch[i], sats[i], oks[i])
					}
				case 3:
					sat, ok := dynamic.LookupOp(dm.NewOp(c, 1), k)
					keep(k, sat, ok)
				case 4:
					sats, oks := batchInto(dynamic.LookupBatchInto).results(dm.NewOp(c, len(batch)), nil, batch)
					for i := range batch {
						keep(batch[i], sats[i], oks[i])
					}
				case 5: // re-store a shared key's own satellite: an update
					update(basic.InsertOp, basic.LookupOp, bm, k, want[k])
					update(dynamic.InsertOp, dynamic.LookupOp, dm, k, want[k])
				case 6: // insert and delete the private key
					sat := []pdm.Word{own, pdm.Word(r), pdm.Word(c)}
					update(basic.InsertOp, basic.LookupOp, bm, own, sat)
					update(dynamic.InsertOp, dynamic.LookupOp, dm, own, sat)
					if !basic.DeleteOp(bm.NewOp(c, 1), own) || !dynamic.DeleteOp(dm.NewOp(c, 1), own) {
						t.Errorf("client %d: private key %d not deleted", c, own)
					}
				case 7:
					if _, ok, err := broken.LookupTryOp(brokenM.NewOp(c, 1), own); ok || err == nil {
						t.Errorf("client %d: absent key %d with two disks down: ok=%v err=%v", c, own, ok, err)
					} else {
						hold(err)
					}
				case 8:
					batch[0] = own
					sats, oks := make([][]pdm.Word, len(batch)), make([]bool, len(batch))
					if _, err := broken.lookup(brokenM.NewOp(c, len(batch)), nil, batch, sats, oks, true); err == nil {
						t.Errorf("client %d: a batch with an absent key and two disks down was conclusive", c)
					} else {
						hold(err)
					}
					for i := range batch {
						if oks[i] {
							keep(batch[i], sats[i], true)
						}
					}
				}
				for _, pool := range []*scratchPool{&basic.scratch, &dynamic.scratch, &broken.scratch} {
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
	for c, hs := range held {
		for _, h := range hs {
			if fmt.Sprint(h.be.Blocks) != fmt.Sprint(h.want) {
				t.Fatalf("client %d: a held lookup error now lists %v, want %v", c, h.be.Blocks, h.want)
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
