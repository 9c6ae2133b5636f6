package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"

	"pdmdict"
	"pdmdict/internal/bucket"
	"pdmdict/internal/core"
	"pdmdict/internal/expander"
	"pdmdict/internal/fault"
	"pdmdict/internal/loadbalance"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
	"pdmdict/internal/sched"
)

// The layer probes time calls into each layer's exported functions from
// outside, testing.Benchmark-style, on small fixtures built from the run
// seed. They do not depend on the workload: a traced run of any workload
// reports the same probes, so a change to a layer shows in its own row
// whichever workload is traced.

// fixtureRecords is the size of every probe fixture.
const fixtureRecords = 4096

// probeReps is how often a probe loop is repeated; the median is kept.
const probeReps = 3

// sink keeps the results of pure probe calls alive so the compiler cannot
// drop the calls. Only the main goroutine touches it; probes that run on
// several goroutines keep a sink of their own.
var sink int

// timeLoop runs fn n times, probeReps times over, and returns the median
// wall time per call together with the allocations and bytes per call.
func timeLoop(n int, fn func(i int)) (ns, allocs, bytes float64) {
	var ms0, ms1 runtime.MemStats
	times := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		runtime.ReadMemStats(&ms0)
		t0 := now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := since(t0)
		runtime.ReadMemStats(&ms1)
		times = append(times, float64(d)/float64(n))
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
		bytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
	}
	return median(times), allocs, bytes
}

// addrRecorder is a hook that keeps a copy of every read batch's
// addresses.
type addrRecorder struct {
	reads [][]pdm.Addr
}

func (r *addrRecorder) Event(e pdm.Event) {
	if e.Kind == pdm.EventRead {
		r.reads = append(r.reads, append([]pdm.Addr(nil), e.Addrs...))
	}
}

// copyEvent detaches e from the machine's batch buffer.
func copyEvent(e pdm.Event) pdm.Event {
	addrs := append([]pdm.Addr(nil), e.Addrs...)
	ops := append([]uint64(nil), e.Ops...)
	e.Addrs, e.Ops = addrs, ops
	return e
}

// twin builds the core dictionary pdmdict.NewBasic would build for the
// same options, on a scratch machine, to reach the accessors the public
// wrapper hides: its expander graph and bucket count.
func twin(info layerInfo, seed uint64) (*core.BasicDict, error) {
	cfg := core.BasicConfig{Capacity: info.capacity, SatWords: info.codecSat - 1, Seed: seed}
	if info.replicas > 1 {
		cfg.K, cfg.Replicate = info.replicas, true
	}
	return core.NewBasic(pdm.NewMachine(pdm.Config{D: degree, B: blockSize}), cfg)
}

// probes is one run of the workload-independent layer probes: the keys
// of its fixtures, the map it fills, and how far it shortens its loops.
type probes struct {
	seed          uint64
	stored, spare []uint64
	// div divides every loop count; 8 in a -short smoke run.
	div int
	out map[string]float64
	// err keeps the last error a probed call returned; probed calls must
	// not fail, and the loops cannot stop to say so.
	err error
}

func (p *probes) key(i int) uint64 { return p.stored[i%len(p.stored)] }

func (p *probes) loop(n int, fn func(i int)) (ns, allocs, bytes float64) {
	return timeLoop(n/p.div+1, fn)
}

func (p *probes) contended(g, n int, fn func(i int)) float64 {
	return contended(g, n/p.div+1, fn)
}

// note records err, if any, for failed to report.
func (p *probes) note(err error) {
	if err != nil {
		p.err = err
	}
}

// failed wraps the noted error, if any, and forgets it.
func (p *probes) failed(what string) error {
	err := p.err
	p.err = nil
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// layerProbes fills out with every workload-independent per-layer
// metric.
func layerProbes(seed uint64, short bool, out map[string]float64) error {
	keys := distinctKeys(2*fixtureRecords, seed)
	p := &probes{seed: seed, stored: keys[:fixtureRecords], spare: keys[fixtureRecords:], div: 1, out: out}
	if short {
		p.div = 8
	}
	for _, step := range []func() error{p.basicFixture, p.dynamicFixture, p.otherStructures} {
		if err := step(); err != nil {
			return err
		}
	}
	plan := fault.NewPlan(seed)
	plan.SetTransient(0.01)
	ns, _, _ := p.loop(20000, func(i int) {
		sink += int(plan.Access(pdm.EventRead, pdm.Addr{Disk: i % degree, Block: i % 64}).Kind)
	})
	out["fault.access_ns"] = ns
	return nil
}

// basicFixture probes a bulk-loaded pdmdict.Basic and the layers under
// it: core.basic.*, pdm.*, bucket.*, expander.* and persistence.
func (p *probes) basicFixture() error {
	out := p.out
	t0 := now()
	basic, err := pdmdict.NewBasic(pdmdict.BasicOptions{Options: baseOptions(fixtureRecords, p.seed)})
	if err != nil {
		return err
	}
	if err := basic.BulkLoad(records(p.stored)); err != nil {
		return err
	}
	out["pdmdict.bulkload_ns_per_record"] = float64(since(t0)) / fixtureRecords
	info := layerInfo{bucketDisks: degree, codecSat: 1 + satWords, capacity: fixtureRecords, replicas: 1}
	tw, err := twin(info, p.seed)
	if err != nil {
		return err
	}
	out["core.basic.max_load_ratio"] = float64(basic.MaxLoad()) /
		loadbalance.Lemma3Bound(fixtureRecords, tw.Buckets(), degree, 1, 0.25, 0.5)

	ns, allocs, bytesPer := p.loop(2000, func(i int) {
		_, ok := basic.Lookup(p.key(i))
		sink += b2i(ok)
	})
	out["core.basic.lookup_ns"], out["core.basic.lookup_allocs"], out["core.basic.lookup_bytes"] = ns, allocs, bytesPer
	batch := make([]uint64, 64)
	ns, allocs, _ = p.loop(40, func(i int) {
		for j := range batch {
			batch[j] = p.key(i*64 + j)
		}
		sats, _ := basic.LookupBatch(batch)
		sink += len(sats)
	})
	out["core.basic.lookupbatch64_ns"], out["core.basic.lookupbatch64_allocs"] = ns, allocs
	ns, _, _ = p.loop(2000, func(i int) {
		_, ok, err := basic.LookupTry(p.key(i))
		p.note(err)
		sink += b2i(ok)
	})
	if err := p.failed("LookupTry on a faultless machine"); err != nil {
		return err
	}
	out["core.basic.lookuptry_ns"] = ns
	syncd := pdmdict.Synchronized(basic)
	ns, _, _ = p.loop(2000, func(i int) {
		_, ok := syncd.Lookup(p.key(i))
		sink += b2i(ok)
	})
	out["pdmdict.sync_lookup_ns"] = ns

	// Capture the addresses of real lookups for the machine and codec
	// probes to replay.
	m := basic.Machine()
	rec := &addrRecorder{}
	m.SetHook(rec)
	for i := 0; i < 256; i++ {
		basic.Lookup(p.key(i))
	}
	single := rec.reads
	rec.reads = nil
	for j := range batch {
		batch[j] = p.key(j)
	}
	basic.LookupBatch(batch)
	wide := rec.reads[0]
	m.SetHook(nil)
	if err := p.machine(m, single, wide); err != nil {
		return err
	}
	p.codec(m, single, bucket.Codec{B: blockSize, SatWords: info.codecSat})

	// expander: one neighbor-set evaluation at the dictionary's degree.
	graph := tw.Graph()
	if _, ok := graph.(*expander.Family); !ok {
		return fmt.Errorf("basic dictionary no longer uses expander.Family; update the expander probe")
	}
	dst := make([]int, 0, degree)
	ns, allocs, _ = p.loop(20000, func(i int) { sink += len(graph.Neighbors(p.key(i), dst[:0])) })
	out["expander.neighbors_ns"], out["expander.neighbors_allocs"] = ns, allocs

	// Persistence.
	var snap bytes.Buffer
	t0 = now()
	if err := basic.Save(&snap); err != nil {
		return err
	}
	out["pdmdict.save_ns_per_record"] = float64(since(t0)) / fixtureRecords
	out["pdmdict.snapshot_bytes_per_record"] = float64(snap.Len()) / fixtureRecords
	t0 = now()
	if _, err := pdmdict.OpenBasic(bytes.NewReader(snap.Bytes())); err != nil {
		return err
	}
	out["pdmdict.load_ns_per_record"] = float64(since(t0)) / fixtureRecords
	return nil
}

// machine probes pdm.Machine with the address lists of real lookups:
// single holds one list of d addresses per lookup, wide the list of one
// 64-key batch.
func (p *probes) machine(m *pdm.Machine, single [][]pdm.Addr, wide []pdm.Addr) error {
	out := p.out
	addrs := func(i int) []pdm.Addr { return single[i%len(single)] }
	ns, allocs, bytesPer := p.loop(4000, func(i int) { sink += len(m.BatchRead(addrs(i))) })
	out["pdm.batchread_d_ns"], out["pdm.batchread_d_allocs"], out["pdm.batchread_d_bytes"] = ns, allocs, bytesPer
	readNS := ns
	ns, _, _ = p.loop(60, func(int) { sink += len(m.BatchRead(wide)) })
	out["pdm.batchread_wide_ns"] = ns
	writes := make([][]pdm.BlockWrite, len(single))
	for i, as := range single {
		for j, blk := range m.BatchRead(as) {
			writes[i] = append(writes[i], pdm.BlockWrite{Addr: as[j], Data: blk})
		}
	}
	ns, _, _ = p.loop(4000, func(i int) { m.BatchWrite(writes[i%len(writes)]) })
	out["pdm.batchwrite_d_ns"] = ns
	ns, _, _ = p.loop(4000, func(i int) {
		blocks, err := m.TryBatchRead(addrs(i))
		p.note(err)
		sink += len(blocks)
	})
	if err := p.failed("TryBatchRead on a faultless machine"); err != nil {
		return err
	}
	out["pdm.trybatchread_d_ns"] = ns
	shared := []*pdm.Op{m.NewOp(0, 1), m.NewOp(1, 1)}
	ns, _, _ = p.loop(4000, func(i int) { sink += len(m.BatchReadShared(shared, addrs(i))) })
	out["pdm.batchread_shared_ns"] = ns
	m.SetHook(obs.HookFunc(func(pdm.Event) {}))
	ns, _, _ = p.loop(4000, func(i int) { sink += len(m.BatchRead(addrs(i))) })
	m.SetHook(nil)
	out["pdm.noop_hook_ns"] = ns
	out["pdm.contended_ns"] = p.contended(nproc(), 4000, func(i int) { m.BatchRead(addrs(i)) })
	out["pdm.contention_factor"] = out["pdm.contended_ns"] / readNS
	t0 := now()
	//lint:pdm-allow iocharge: times the uncharged checksum sweep itself, the outside view of CRC cost
	bad := m.VerifyChecksums()
	out["pdm.verify_ns_per_block"] = float64(since(t0)) / float64(m.TotalBlocks())
	if len(bad) != 0 {
		return fmt.Errorf("fixture has %d blocks failing their checksum", len(bad))
	}
	return nil
}

// codec probes the bucket codec on the blocks real lookups read.
func (p *probes) codec(m *pdm.Machine, single [][]pdm.Addr, codec bucket.Codec) {
	out := p.out
	var blocks [][]pdm.Word
	for _, as := range single {
		blocks = append(blocks, m.BatchRead(as)...)
	}
	block := func(i int) []pdm.Word { return blocks[i%len(blocks)] }
	ns, allocs, _ := p.loop(20000, func(i int) { sink += len(codec.Decode(block(i))) })
	out["bucket.decode_ns"], out["bucket.decode_allocs"] = ns, allocs
	ns, _, _ = p.loop(20000, func(i int) {
		_, ok := codec.Find(block(i), p.key(i))
		sink += b2i(ok)
	})
	out["bucket.find_ns"] = ns
	decoded := make([][]bucket.Record, len(blocks))
	for i, blk := range blocks {
		decoded[i] = codec.Decode(blk)
	}
	ns, _, _ = p.loop(20000, func(i int) { sink += len(codec.Encode(decoded[i%len(decoded)])) })
	out["bucket.encode_ns"] = ns
	scratch := make([]pdm.Word, blockSize)
	extra := bucket.Record{Key: p.spare[0], Sat: make([]pdm.Word, codec.SatWords)}
	ns, _, _ = p.loop(20000, func(i int) {
		copy(scratch, block(i))
		sink += b2i(codec.Append(scratch, extra))
	})
	out["bucket.append_ns"] = ns
}

// dynamicFixture probes a preloaded pdmdict.Dynamic: core.dynamic.*, the
// cost of the hook chain, scaling with clients, and the scheduler and its
// intent log on top.
func (p *probes) dynamicFixture() error {
	out := p.out
	dyn, err := preloadDynamic(p.seed, p.stored, len(p.spare))
	if err != nil {
		return err
	}
	// Runs on several goroutines at once below, so no shared sink: the
	// call locks and counts, which keeps it alive.
	lookup := func(i int) { dyn.Lookup(p.key(i)) }
	dynNS, _, _ := p.loop(2000, lookup)
	out["core.dynamic.lookup_ns"] = dynNS
	out["pdmdict.scale_nproc"] = dynNS / p.contended(nproc(), 2000, lookup) * float64(nproc())
	dyn.SetHook(fullHookChain())
	ns, _, _ := p.loop(2000, lookup)
	dyn.SetHook(nil)
	out["obs.hooked_ratio"] = ns / dynNS
	sat := satOf(0, 1)
	ns, _, _ = p.loop(400, func(i int) { p.note(dyn.Insert(p.spare[i%400], sat[:])) })
	if err := p.failed("dynamic fixture insert"); err != nil {
		return err
	}
	out["core.dynamic.insert_ns"] = ns

	var intents bytes.Buffer
	sd, err := pdmdict.NewScheduled(dyn, pdmdict.SchedOptions{MaxBatch: 1, Block: true, IntentLog: &intents})
	if err != nil {
		return err
	}
	ns, _, _ = p.loop(2000, func(i int) {
		_, ok := sd.LookupClient(0, p.key(i))
		sink += b2i(ok)
	})
	out["sched.lookup_1c_ns"] = ns
	ns, _, _ = p.loop(400, func(i int) { p.note(sd.Insert(p.spare[400+i%400], sat[:])) })
	p.note(sd.Close())
	if err := p.failed("scheduled fixture"); err != nil {
		return err
	}
	out["sched.insert_ns"] = ns
	log := sched.NewIntentLog(io.Discard)
	ns, _, _ = p.loop(20000, func(i int) {
		p.note(log.Append(sched.Intent{Key: p.key(i), Sat: sat[:]}))
		if i%8 == 7 {
			p.note(log.Commit())
		}
	})
	if err := p.failed("intent log"); err != nil {
		return err
	}
	out["sched.intentlog_append_ns"] = ns
	t0 := now()
	replayed, err := sched.ReplayIntents(bytes.NewReader(intents.Bytes()))
	if err != nil || len(replayed) == 0 {
		return fmt.Errorf("intent replay: %d intents, %v", len(replayed), err)
	}
	out["sched.replay_ns_per_intent"] = float64(since(t0)) / float64(len(replayed))
	return nil
}

// lookuper is what the lookup loop needs of a structure.
type lookuper interface {
	Lookup(pdmdict.Word) ([]pdmdict.Word, bool)
	Insert(pdmdict.Word, []pdmdict.Word) error
}

// fill inserts the first n stored keys into d.
func (p *probes) fill(d lookuper, n int) error {
	for _, k := range p.stored[:n] {
		s := satOf(k, 1)
		if err := d.Insert(k, s[:]); err != nil {
			return err
		}
	}
	return nil
}

// lookupNS times lookups of the first n stored keys in d.
func (p *probes) lookupNS(d lookuper, n int) float64 {
	ns, _, _ := p.loop(2000, func(i int) {
		_, ok := d.Lookup(p.stored[i%n])
		sink += b2i(ok)
	})
	return ns
}

// otherStructures probes the remaining structures, the Named wrapper and
// the baselines, one loop each.
func (p *probes) otherStructures() error {
	out := p.out
	sat := satOf(0, 1)
	small := fixtureRecords / 4
	dict, err := pdmdict.New(baseOptions(small, p.seed))
	if err != nil {
		return err
	}
	if err := p.fill(dict, small); err != nil {
		return err
	}
	ns, _, _ := p.loop(400, func(i int) { p.note(dict.Insert(p.spare[i%400], sat[:])) })
	if err := p.failed("dict fixture insert"); err != nil {
		return err
	}
	out["core.dict.insert_ns"] = ns
	ns, _, _ = p.loop(400, func(i int) { sink += b2i(dict.Delete(p.spare[i%400])) })
	out["core.dict.delete_ns"] = ns

	op, err := pdmdict.NewOneProbe(pdmdict.OneProbeOptions{Options: baseOptions(small, p.seed)})
	if err != nil {
		return err
	}
	if err := p.fill(op, small); err != nil {
		return err
	}
	out["core.oneprobe.lookup_ns"] = p.lookupNS(op, small)
	static, err := pdmdict.BuildStatic(pdmdict.StaticOptions{Options: baseOptions(small, p.seed)}, records(p.stored[:small]))
	if err != nil {
		return err
	}
	out["core.static.lookup_ns"] = p.lookupNS(static, small)

	nameStore, err := pdmdict.New(pdmdict.Options{
		Capacity: small, SatWords: pdmdict.NamedSatWords(satWords), Degree: degree, BlockSize: blockSize, Seed: p.seed,
	})
	if err != nil {
		return err
	}
	named := pdmdict.NewNamed(nameStore, satWords)
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprintf("/var/mail/user%03d/msg%06d", i%17, i)
		if err := named.Insert(names[i], sat[:]); err != nil {
			return err
		}
	}
	ns, _, _ = p.loop(2000, func(i int) {
		_, ok := named.Lookup(names[i%len(names)])
		sink += b2i(ok)
	})
	out["pdmdict.named_lookup_ns"] = ns

	table, err := pdmdict.NewHashTable(baseOptions(fixtureRecords, p.seed))
	if err != nil {
		return err
	}
	cuckoo, err := pdmdict.NewCuckoo(baseOptions(fixtureRecords, p.seed))
	if err != nil {
		return err
	}
	btree, err := pdmdict.NewBTree(pdmdict.BTreeOptions{Options: baseOptions(fixtureRecords, p.seed)})
	if err != nil {
		return err
	}
	for _, b := range []struct {
		name string
		d    lookuper
	}{
		{"hashing.table_lookup_ns", table}, {"hashing.cuckoo_lookup_ns", cuckoo}, {"btree.lookup_ns", btree},
	} {
		if err := p.fill(b.d, fixtureRecords); err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		out[b.name] = p.lookupNS(b.d, fixtureRecords)
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// contended runs fn n times on each of g goroutines at once and returns
// the wall time per call as one goroutine sees it.
func contended(g, n int, fn func(i int)) float64 {
	times := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		var wg sync.WaitGroup
		t0 := now()
		for c := 0; c < g; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					fn(c*n + i)
				}
			}(c)
		}
		wg.Wait()
		times = append(times, float64(since(t0))/float64(n))
	}
	return median(times)
}

// healProbe times rebuilding and scrubbing one disk of a replicated
// dictionary whose injector no longer fails it.
func healProbe(b *pdmdict.Basic, disk int, out map[string]float64) error {
	// A wiped disk holds no blocks yet; its neighbour has as many as the
	// repair will write.
	rows := float64(b.Machine().BlocksAllocated()[(disk+1)%degree])
	ios0 := b.IOStats().ParallelIOs
	t0 := now()
	if err := b.Repair(disk); err != nil {
		return fmt.Errorf("repair disk %d: %w", disk, err)
	}
	out["heal.repair_ns_per_block"] = float64(since(t0)) / rows
	out["heal.repair_steps"] = float64(b.IOStats().ParallelIOs - ios0)
	t0 = now()
	bad := b.ScrubDisk(disk)
	out["heal.scrub_ns_per_block"] = float64(since(t0)) / rows
	if len(bad) != 0 {
		return fmt.Errorf("scrub after repair found %d bad blocks on disk %d", len(bad), disk)
	}
	return nil
}

// healFixtureProbe is healProbe on a small replicated fixture with one
// disk wiped, for the workloads that have no failed disk of their own.
func healFixtureProbe(seed uint64, out map[string]float64) error {
	b, err := pdmdict.NewBasic(pdmdict.BasicOptions{Options: baseOptions(fixtureRecords, seed), Replicas: 2})
	if err != nil {
		return err
	}
	for _, k := range distinctKeys(fixtureRecords, seed) {
		s := satOf(k, 1)
		if err := b.Insert(k, s[:]); err != nil {
			return err
		}
	}
	disk := int(mix64(seed) % degree)
	b.Machine().WipeDisk(disk)
	return healProbe(b, disk, out)
}
