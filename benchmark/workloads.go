package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"

	"pdmdict"
	"pdmdict/internal/fault"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// Machine shape shared by every workload.
const (
	degree    = 20
	blockSize = 64
)

// segments is the number of equal-op pieces a measured phase is cut
// into; throughput and median latency are the median of the per-segment
// values. On a shared two-core box segment rates scatter by several per
// cent around the run's level, so the median needs this many of them to
// repeat within a third of the bounds.
const segments = 25

// pools is the number of groups of consecutive segments whose latency
// samples are pooled for the tail percentile, so that each pool keeps
// ten samples beyond it.
const pools = 5

// warmupShare of the measured op count runs before timing starts.
const warmupShare = 0.05

// sizing fixes how much data a workload loads and how many keys it
// drives per second of requested run time. The constants were sized on
// the seed commit (2 vCPU) so that opsPerSecond × --seconds keys take
// about --seconds to run; they are frozen so that counts repeat exactly.
type sizing struct {
	// records is the number of preloaded keys.
	records int
	// opsPerSecond is the number of keys measured per second of
	// --seconds.
	opsPerSecond int
}

// workload is one named benchmark workload.
type workload struct {
	name string
	why  string
	size sizing
	// short replaces size in tests.
	short sizing
	// clients is the number of closed-loop client goroutines.
	clients func() int
	// stride is the number of keys one public call carries.
	stride int
	// setup builds the dictionary from the seed. ops is the total
	// number of keys the run will issue (warm-up included), for
	// workloads that must reserve room for what they insert.
	setup func(seed uint64, size sizing, clients, ops int) (*instance, error)
}

// sizing returns the workload's frozen sizing, or the tests' small one.
func (w *workload) sizing(short bool) sizing {
	if short {
		return w.short
	}
	return w.size
}

// instance is one built workload: the dictionary behind its wrappers and
// the functions the runner drives it through.
type instance struct {
	dict pdmdict.Dictionary
	// machine is the dictionary's simulated machine, nil where the
	// public wrapper exposes none (pdmdict.Dict).
	machine *pdm.Machine
	streams []stream
	// call issues one public call for ops (len == stride) on behalf of
	// client c, times only that call, checks the result against the
	// oracle and returns the call's wall time and whether it failed.
	call func(c int, ops []op) (ns int64, failed bool)
	// root names the public method call times, e.g.
	// "pdmdict.Basic.Lookup"; it is the root span of a traced op.
	root string
	// finish runs after the last op: drains wrappers, verifies what
	// could not be verified per call, and returns the number of further
	// results the oracle rejects.
	finish func() (checked, failed int)
	// probe describes the layers under the dictionary to the traced
	// pass.
	probe layerInfo
	// hookChain builds a fresh copy of the hook chain the workload
	// installs, nil when it installs none.
	hookChain func() pdm.Hook
	// setHook installs a hook on the dictionary's machine(s).
	setHook func(pdm.Hook)
	// plan is the fault plan the workload injects, nil when none; its
	// fail-stopped disk is plan.FailedDisks()[0].
	plan *fault.Plan
}

// The traced pass needs a few things only some dictionaries have; the
// concrete type behind dict says which.

func (i *instance) basic() *pdmdict.Basic {
	b, _ := i.dict.(*pdmdict.Basic)
	return b
}

func (i *instance) sched() *pdmdict.Scheduled {
	s, _ := i.dict.(*pdmdict.Scheduled)
	return s
}

// rebuilds is the number of global rebuilds completed, 0 for a
// dictionary that has none.
func (i *instance) rebuilds() int64 {
	if d, ok := i.dict.(*pdmdict.Dict); ok {
		return d.Rebuilds()
	}
	return 0
}

// layerInfo tells the traced pass how the dictionary lays records out,
// so the out-of-line probes exercise the same layer code on the same
// data.
type layerInfo struct {
	// bucketDisks: blocks on disks below it hold bucket-coded records.
	bucketDisks int
	// codecSat is the bucket codec's satellite width there.
	codecSat int
	// capacity sizes the expander family the dictionary uses.
	capacity int
	// replicas is the replication factor (1 = none).
	replicas int
}

func nproc() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	return n
}

func one() int { return 1 }

var workloads = []workload{
	{
		name:    "point-read",
		why:     "Basic, 1 client, uniform 90/10 hit/miss lookups, no hook: only expander, core, pdm and bucket work, so read-path gains show here and obs/sched/fault changes must not.",
		size:    sizing{records: 65536, opsPerSecond: 130000},
		short:   sizing{records: 2048, opsPerSecond: 2000},
		clients: one,
		stride:  1,
		setup:   setupPointRead,
	},
	{
		name:    "batch-read",
		why:     "Dynamic, 1 client, LookupBatch of 64 uniform keys: the dedup-merged two-round probe and pdm's wide fan-out path, so a single-key gain that costs the batch path shows.",
		size:    sizing{records: 16384, opsPerSecond: 70400},
		short:   sizing{records: 2048, opsPerSecond: 1920},
		clients: one,
		stride:  64,
		setup:   setupBatchRead,
	},
	{
		name:    "mixed-update",
		why:     "Dict, 1 client, 50/25/25 insert/delete/lookup over Zipf keys with a map oracle, growing through global rebuilds: the write path and migration stalls, where read-only layers do little.",
		size:    sizing{records: 2000, opsPerSecond: 22000},
		short:   sizing{records: 500, opsPerSecond: 1500},
		clients: one,
		stride:  1,
		setup:   setupMixedUpdate,
	},
	{
		name:    "observed-clients",
		why:     "Dynamic, nproc clients, LookupCtx under the full hook chain fskv wires: obs consumers and pdm's emission lock do most of the work, the only place moving them off the critical path can show.",
		size:    sizing{records: 16384, opsPerSecond: 27000},
		short:   sizing{records: 2048, opsPerSecond: 2000},
		clients: nproc,
		stride:  1,
		setup:   setupObservedClients,
	},
	{
		name:    "scheduled-clients",
		why:     "Scheduled(Dynamic), 8 lockstep clients, Zipf LookupClient with 5 % group-committed inserts and an intent log: sched admission, windows and wake-ups dominate and obs does nothing.",
		size:    sizing{records: 16384, opsPerSecond: 34000},
		short:   sizing{records: 2048, opsPerSecond: 2000},
		clients: func() int { return schedClients },
		stride:  1,
		setup:   setupScheduledClients,
	},
	{
		name:    "degraded-read",
		why:     "Basic with 2 replicas, one disk fail-stopped and 1 % transient reads, LookupTry: the only workload on tryBatchRead, retries, replica fallback and the health machine.",
		size:    sizing{records: 65536, opsPerSecond: 20000},
		short:   sizing{records: 2048, opsPerSecond: 1500},
		clients: one,
		stride:  1,
		setup:   setupDegradedRead,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func baseOptions(capacity int, seed uint64) pdmdict.Options {
	return pdmdict.Options{
		Capacity:  capacity,
		SatWords:  satWords,
		Degree:    degree,
		BlockSize: blockSize,
		Seed:      seed,
	}
}

// records pairs every key with its version-1 satellite.
func records(keys []uint64) []pdmdict.Record {
	recs := make([]pdmdict.Record, len(keys))
	for i, k := range keys {
		s := satOf(k, 1)
		recs[i] = pdmdict.Record{Key: k, Sat: s[:]}
	}
	return recs
}

// checkLookup compares one lookup result with the oracle.
func checkLookup(o op, sat []uint64, ok bool) (failed bool) {
	if o.want == 0 {
		return ok
	}
	return !ok || !satOK(sat, o.key, o.want)
}

func uniformStreams(seed uint64, clients int, keys []uint64, missPct int) []stream {
	out := make([]stream, clients)
	for c := range out {
		out[c] = &uniformReads{rng: clientRNG(seed, c), keys: keys, missPct: missPct}
	}
	return out
}

func noFinish() (int, int) { return 0, 0 }

func setupPointRead(seed uint64, size sizing, clients, ops int) (*instance, error) {
	keys := distinctKeys(size.records, seed)
	b, err := pdmdict.NewBasic(pdmdict.BasicOptions{Options: baseOptions(size.records, seed)})
	if err != nil {
		return nil, err
	}
	if err := b.BulkLoad(records(keys)); err != nil {
		return nil, err
	}
	return &instance{
		dict:    b,
		machine: b.Machine(),
		streams: uniformStreams(seed, clients, keys, 10),
		root:    "pdmdict.Basic.Lookup",
		call: func(_ int, ops []op) (int64, bool) {
			t0 := now()
			sat, ok := b.Lookup(ops[0].key)
			ns := since(t0)
			return ns, checkLookup(ops[0], sat, ok)
		},
		finish:  noFinish,
		setHook: b.SetHook,
		probe:   layerInfo{bucketDisks: degree, codecSat: 1 + satWords, capacity: size.records, replicas: 1},
	}, nil
}

// preloadDynamic builds a Dynamic holding keys, with room for spare
// more.
func preloadDynamic(seed uint64, keys []uint64, spare int) (*pdmdict.Dynamic, error) {
	d, err := pdmdict.NewDynamic(baseOptions(len(keys)+spare, seed))
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		s := satOf(k, 1)
		if err := d.Insert(k, s[:]); err != nil {
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	return d, nil
}

func dynamicProbe(capacity int) layerInfo {
	// The membership sub-dictionary occupies the first d disks and
	// stores one word (head | level<<8) per key.
	return layerInfo{bucketDisks: degree, codecSat: 2, capacity: capacity, replicas: 1}
}

func setupBatchRead(seed uint64, size sizing, clients, ops int) (*instance, error) {
	keys := distinctKeys(size.records, seed)
	d, err := preloadDynamic(seed, keys, 0)
	if err != nil {
		return nil, err
	}
	batch := make([]uint64, 64)
	return &instance{
		dict:    d,
		machine: d.Machine(),
		streams: uniformStreams(seed, clients, keys, 10),
		root:    "pdmdict.Dynamic.LookupBatch",
		call: func(_ int, ops []op) (int64, bool) {
			for i := range ops {
				batch[i] = ops[i].key
			}
			t0 := now()
			sats, oks := d.LookupBatch(batch)
			ns := since(t0)
			failed := len(sats) != len(ops)
			for i := 0; !failed && i < len(ops); i++ {
				failed = checkLookup(ops[i], sats[i], oks[i])
			}
			return ns, failed
		},
		finish:  noFinish,
		setHook: d.SetHook,
		probe:   dynamicProbe(size.records),
	}, nil
}

func setupMixedUpdate(seed uint64, size sizing, clients, ops int) (*instance, error) {
	// The initial capacity sits just above the preload, so the first
	// new keys already trigger a rebuild and the run crosses several
	// doublings.
	d, err := pdmdict.New(baseOptions(size.records+size.records/40, seed))
	if err != nil {
		return nil, err
	}
	gen := newMixedUpdates(seed, size.records)
	for r := 0; r < size.records; r++ {
		k := gen.keyOf(uint64(r))
		s := satOf(k, 1)
		if err := d.Insert(k, s[:]); err != nil {
			return nil, fmt.Errorf("preload rank %d: %w", r, err)
		}
	}
	return &instance{
		dict:    d,
		streams: []stream{gen},
		root:    "pdmdict.Dict",
		call: func(_ int, ops []op) (int64, bool) {
			o := ops[0]
			switch o.kind {
			case opInsert:
				s := satOf(o.key, o.want)
				t0 := now()
				err := d.Insert(o.key, s[:])
				return since(t0), err != nil
			case opDelete:
				t0 := now()
				present := d.Delete(o.key)
				return since(t0), present != (o.want != 0)
			default:
				t0 := now()
				sat, ok := d.Lookup(o.key)
				ns := since(t0)
				return ns, checkLookup(o, sat, ok)
			}
		},
		finish: func() (int, int) {
			// The dictionary must hold exactly the oracle's keys.
			if d.Len() != len(gen.live) {
				return 1, 1
			}
			return 1, 0
		},
		setHook: d.SetHook,
		probe:   dynamicProbe(size.records),
	}, nil
}

// fullHookChain is the consumer chain cmd/fskv installs with -trace:
// the watchdog over collector, event ring, op accountant and a JSONL
// sink.
func fullHookChain() pdm.Hook {
	return obs.NewMonitor(obs.Tee(
		obs.NewCollector(),
		obs.NewRing(256),
		obs.NewOpAccountant(),
		obs.NewJSONLWriter(io.Discard),
	), obs.DefaultRules()...)
}

func setupObservedClients(seed uint64, size sizing, clients, ops int) (*instance, error) {
	keys := distinctKeys(size.records, seed)
	d, err := preloadDynamic(seed, keys, 0)
	if err != nil {
		return nil, err
	}
	d.SetHook(fullHookChain())
	return &instance{
		dict:    d,
		machine: d.Machine(),
		streams: uniformStreams(seed, clients, keys, 10),
		root:    "pdmdict.Dynamic.LookupCtx",
		call: func(c int, ops []op) (int64, bool) {
			t0 := now()
			sat, ok := d.LookupCtx(d.MintOp(c, 1, obs.TagLookup), ops[0].key)
			ns := since(t0)
			return ns, checkLookup(ops[0], sat, ok)
		},
		finish:    noFinish,
		setHook:   d.SetHook,
		hookChain: fullHookChain,
		probe:     dynamicProbe(size.records),
	}, nil
}

// schedClients is the closed-loop client count of scheduled-clients; it
// is also the scheduler's MaxBatch, so every admission window holds
// exactly one op of each client and the run is lockstep.
const schedClients = 8

// schedInsertEvery makes every 20th op of a client an insert (5 %).
const schedInsertEvery = 20

func setupScheduledClients(seed uint64, size sizing, clients, ops int) (*instance, error) {
	perClient := ops/clients/schedInsertEvery + 1
	all := distinctKeys(size.records+clients*perClient, seed)
	keys, fresh := all[:size.records], all[size.records:]
	d, err := preloadDynamic(seed, keys, len(fresh))
	if err != nil {
		return nil, err
	}
	var intents bytes.Buffer
	s, err := pdmdict.NewScheduled(d, pdmdict.SchedOptions{
		MaxBatch:  clients,
		Block:     true,
		IntentLog: &intents,
	})
	if err != nil {
		return nil, err
	}
	streams := make([]stream, clients)
	for c := range streams {
		streams[c] = newZipfReads(clientRNG(seed, c), keys, schedInsertEvery, fresh[c*perClient:(c+1)*perClient])
	}
	// acked[c] collects the keys whose insert client c saw acknowledged;
	// each slot is touched by its client only.
	acked := make([][]uint64, clients)
	return &instance{
		dict:    s,
		machine: d.Machine(),
		streams: streams,
		root:    "pdmdict.Scheduled.LookupClient",
		call: func(c int, ops []op) (int64, bool) {
			o := ops[0]
			if o.kind == opInsert {
				sat := satOf(o.key, o.want)
				t0 := now()
				err := s.InsertCtx(s.MintOp(c, 1, obs.TagInsert), o.key, sat[:])
				ns := since(t0)
				if err == nil {
					acked[c] = append(acked[c], o.key)
				}
				return ns, err != nil
			}
			t0 := now()
			sat, ok := s.LookupClient(c, o.key)
			ns := since(t0)
			return ns, checkLookup(o, sat, ok)
		},
		finish: func() (checked, failed int) {
			s.Flush()
			for _, ks := range acked {
				for _, k := range ks {
					checked++
					if sat, ok := d.Lookup(k); !ok || !satOK(sat, k, 1) {
						failed++
					}
				}
			}
			if err := s.Close(); err != nil {
				failed++
			}
			return checked, failed
		},
		setHook: d.SetHook,
		probe:   dynamicProbe(len(all)),
	}, nil
}

func setupDegradedRead(seed uint64, size sizing, clients, ops int) (*instance, error) {
	keys := distinctKeys(size.records, seed)
	b, err := pdmdict.NewBasic(pdmdict.BasicOptions{Options: baseOptions(size.records, seed), Replicas: 2})
	if err != nil {
		return nil, err
	}
	// One Insert per key: at the seed commit BulkLoad ignores Replicas
	// and stores fragments, so bulk-loaded replicated dictionaries
	// return wrong satellites.
	for _, k := range keys {
		s := satOf(k, 1)
		if err := b.Insert(k, s[:]); err != nil {
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	plan := fault.NewPlan(seed)
	failed := int(mix64(seed) % degree)
	plan.FailDisk(failed)
	plan.SetTransient(0.01)
	b.SetFaultInjector(plan)
	b.SetRetryPolicy(pdmdict.DefaultRetryPolicy())
	return &instance{
		dict:    b,
		machine: b.Machine(),
		plan:    plan,
		// Every key is stored: with a disk down a miss can never be
		// conclusive, and an inconclusive lookup counts as failed.
		streams: uniformStreams(seed, clients, keys, 0),
		root:    "pdmdict.Basic.LookupTry",
		call: func(_ int, ops []op) (int64, bool) {
			t0 := now()
			sat, ok, err := b.LookupTry(ops[0].key)
			ns := since(t0)
			return ns, err != nil || checkLookup(ops[0], sat, ok)
		},
		finish:  noFinish,
		setHook: b.SetHook,
		probe:   layerInfo{bucketDisks: degree, codecSat: 1 + satWords, capacity: size.records, replicas: 2},
	}, nil
}
