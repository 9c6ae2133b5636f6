package core

import (
	"fmt"
	"slices"
	"testing"

	"pdmdict/internal/pdm"
)

// lookupForms is one structure's set of read entry points, plus what a
// single-key lookup of x must read.
type lookupForms struct {
	name    string
	keys    []pdm.Word // stored keys and absent ones
	single  func(op *pdm.Op, x pdm.Word) ([]pdm.Word, bool)
	batch   batchInto
	try     func(x pdm.Word) ([]pdm.Word, bool, error) // nil: the structure has none
	setHook func(pdm.Hook)
	// probes returns the address lists of the read events a single-key
	// lookup of x issues, in order, derived without the lookup path.
	probes func(x pdm.Word) [][]pdm.Addr
}

// batchInto is a structure's LookupBatchInto.
type batchInto func(op *pdm.Op, shared []*pdm.Op, keys []pdm.Word, sats [][]pdm.Word, oks []bool)

// results runs into over keys with result slices whose entries hold a
// stale answer first, so an entry the body forgets to write shows.
func (into batchInto) results(op *pdm.Op, shared []*pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool) {
	sats, oks := make([][]pdm.Word, len(keys)), make([]bool, len(keys))
	for i := range keys {
		sats[i], oks[i] = []pdm.Word{0xdead}, true
	}
	into(op, shared, keys, sats, oks)
	return sats, oks
}

// dynProbes is what a DynamicDict lookup of x reads: the membership
// buckets and A_1's fields, then — for a key resident deeper — its
// level's fields. found reports whether x is stored.
func dynProbes(dd *DynamicDict, x pdm.Word) (events [][]pdm.Addr, found bool) {
	sc := new(probeScratch)
	first := dd.probeLocked(sc, x, nil)
	membLen := dd.memb.probeLen()
	blocks := make([][]pdm.Word, membLen)
	for i, a := range first[:membLen] {
		blocks[i] = dd.m.Peek(a)
	}
	events = [][]pdm.Addr{first}
	_, level, _, ok := dd.residenceLocked(sc, x, blocks)
	if ok && level > 0 {
		events = append(events, dd.levelAddrs(&dd.levels[level], x, nil))
	}
	return events, ok
}

// withAbsent returns the stored keys of recs followed by absent ones.
func withAbsent(recs []pdm.Word, absent int) []pdm.Word {
	keys := slices.Clone(recs)
	for i := 0; i < absent; i++ {
		keys = append(keys, pdm.Word(1<<50+2*i+1))
	}
	return keys
}

func basicForms(t *testing.T, name string, cfg BasicConfig) lookupForms {
	const n = 120
	cfg.Capacity, cfg.SatWords, cfg.Seed = n, 3, 4
	bd, m := newBasic(t, 8, 32, cfg)
	recs := makeRecords(n, 3, 4)
	stored := make([]pdm.Word, n)
	for i, r := range recs {
		if err := bd.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
		stored[i] = r.Key
	}
	return lookupForms{
		name:    name,
		keys:    withAbsent(stored, 40),
		single:  bd.LookupOp,
		batch:   bd.LookupBatchInto,
		try:     bd.LookupTry,
		setHook: m.SetHook,
		probes: func(x pdm.Word) [][]pdm.Addr {
			return [][]pdm.Addr{bd.probeAddrs(new(probeScratch), x, nil)}
		},
	}
}

func dynamicForms(t *testing.T) lookupForms {
	const n = 512
	m := pdm.NewMachine(pdm.Config{D: 40, B: 64})
	dd, err := NewDynamic(m, DynamicConfig{Capacity: n, SatWords: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(n, 2, 6)
	stored := make([]pdm.Word, n)
	for i, r := range recs {
		if err := dd.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
		stored[i] = r.Key
	}
	if counts := dd.LevelCounts(); counts[0] == n {
		t.Fatalf("level counts %v: no key below A_1, the second round goes untested", counts)
	}
	return lookupForms{
		name:    "dynamic-deep",
		keys:    withAbsent(stored, 64),
		single:  dd.LookupOp,
		batch:   dd.LookupBatchInto,
		try:     dd.LookupTry,
		setHook: m.SetHook,
		probes: func(x pdm.Word) [][]pdm.Addr {
			events, _ := dynProbes(dd, x)
			return events
		},
	}
}

func oneProbeForms(t *testing.T) lookupForms {
	const n = 256
	m := pdm.NewMachine(pdm.Config{D: 40, B: 64})
	op, err := NewOneProbe(m, OneProbeConfig{Capacity: n, SatWords: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(n, 2, 7)
	stored := make([]pdm.Word, n)
	for i, r := range recs {
		if err := op.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
		stored[i] = r.Key
	}
	return lookupForms{
		name:    "oneprobe",
		keys:    withAbsent(stored, 64),
		single:  op.LookupOp,
		batch:   op.LookupBatchInto,
		try:     op.LookupTry,
		setHook: m.SetHook,
		probes: func(x pdm.Word) [][]pdm.Addr {
			return [][]pdm.Addr{op.probeLocked(new(probeScratch), x, nil)}
		},
	}
}

// staticForms reads a Static's cascade directly: pdmdict.Static offers
// only Lookup, which is LookupOp with a nil op.
func staticForms(t *testing.T, cs StaticCase) lookupForms {
	const n = 200
	recs := makeRecords(n, 3, 9)
	sd, m := buildStatic(t, 12, 64, StaticConfig{SatWords: 3, Case: cs, Seed: 9}, recs)
	stored := make([]pdm.Word, n)
	for i, r := range recs {
		stored[i] = r.Key
	}
	c := &sd.c
	return lookupForms{
		name:    "static-" + cs.String(),
		keys:    withAbsent(stored, 64),
		single:  c.LookupOp,
		batch:   c.LookupBatchInto,
		try:     c.LookupTry,
		setHook: m.SetHook,
		probes: func(x pdm.Word) [][]pdm.Addr {
			var addrs []pdm.Addr
			if cs == CaseA {
				addrs = c.memb.probeAddrs(new(probeScratch), x, nil)
			}
			for i := range c.d {
				addrs = append(addrs, fieldAddr(sd, x, i))
			}
			return [][]pdm.Addr{addrs}
		},
	}
}

// fieldAddr is the static layout's address of the block holding x's
// field on stripe i: its i-th neighbor in the retrieval array.
func fieldAddr(sd *StaticDict, x pdm.Word, i int) pdm.Addr {
	return sd.arr.addr(i, sd.graph.StripeNeighbor(uint64(x), i)/sd.c.fieldsPerBlock)
}

// dictForms stops a Dict part-way through its first migration, so the
// seeded keys live in both structures: the routing's miss path runs.
func dictForms(t *testing.T) lookupForms {
	const initial = 64
	d := newDict(t, DictConfig{InitialCapacity: initial, SatWords: 2, MigrateBatch: 1, Seed: 8})
	recs := makeRecords(initial+24, 2, 8)
	stored := make([]pdm.Word, len(recs))
	for i, r := range recs {
		if err := d.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
		stored[i] = r.Key
	}
	if !d.Migrating() || d.active.Len() == 0 || d.next.Len() == 0 {
		t.Fatalf("want a migration with keys on both sides (active %d, next %d)", d.active.Len(), d.next.Len())
	}
	next, active := d.next.(*DynamicDict), d.active.(*DynamicDict)
	return lookupForms{
		name:    "dict-migrating",
		keys:    withAbsent(stored, 40),
		single:  d.LookupOp,
		batch:   d.LookupBatchInto,
		setHook: d.SetHook,
		probes: func(x pdm.Word) [][]pdm.Addr {
			events, found := dynProbes(next, x)
			if !found {
				more, _ := dynProbes(active, x)
				events = append(events, more...)
			}
			return events
		},
	}
}

// Every read form of every structure is one lookup body, so they must
// agree: for each seeded key, LookupOp, LookupBatchInto of one key, a
// shared round of one token, a shared round of eight, LookupBatchInto
// into caller buffers with room, and LookupTry without an injector
// return the same satellite and presence. A
// single-key lookup's read events carry exactly its probe addresses, in
// probe order, one parallel I/O each — the batch of one's
// de-duplication is the identity. Run under -race -cpu=1,2,4.
func TestLookupFormsAgree(t *testing.T) {
	for _, build := range []func(*testing.T) lookupForms{
		func(t *testing.T) lookupForms { return basicForms(t, "basic-k1", BasicConfig{}) },
		func(t *testing.T) lookupForms { return basicForms(t, "basic-k4", BasicConfig{K: 4}) },
		func(t *testing.T) lookupForms {
			return basicForms(t, "basic-replicas2", BasicConfig{K: 2, Replicate: true})
		},
		dynamicForms,
		oneProbeForms,
		dictForms,
		func(t *testing.T) lookupForms { return staticForms(t, CaseA) },
		func(t *testing.T) lookupForms { return staticForms(t, CaseB) },
	} {
		f := build(t)
		t.Run(f.name, func(t *testing.T) { checkLookupForms(t, f) })
	}
}

func checkLookupForms(t *testing.T, f lookupForms) {
	rec := &coreEventRecorder{}
	f.setHook(rec)
	defer f.setHook(nil)
	var nextID uint64
	token := func() *pdm.Op {
		nextID++
		return pdm.MakeOp(nextID, int(nextID%8), 1)
	}

	type answer struct {
		sat []pdm.Word
		ok  bool
	}
	want := make([]answer, len(f.keys))
	hits := 0
	for i, x := range f.keys {
		rec.events = nil
		sat, ok := f.single(token(), x)
		want[i] = answer{sat, ok}
		if ok {
			hits++
		}
		var reads [][]pdm.Addr
		for _, e := range rec.events {
			if e.Kind != pdm.EventRead {
				continue
			}
			if e.Steps != 1 {
				t.Fatalf("key %d: read event of %d steps, want 1", x, e.Steps)
			}
			reads = append(reads, e.Addrs)
		}
		if wantReads := f.probes(x); fmt.Sprint(reads) != fmt.Sprint(wantReads) {
			t.Fatalf("key %d: single-key reads\n  %v\nwant its probe addresses\n  %v", x, reads, wantReads)
		}
	}
	if hits == 0 || hits == len(f.keys) {
		t.Fatalf("%d of %d keys hit; want both hits and misses", hits, len(f.keys))
	}

	check := func(form string, i int, sat []pdm.Word, ok bool) {
		t.Helper()
		if ok != want[i].ok || !slices.Equal(sat, want[i].sat) {
			t.Fatalf("key %d: %s = %v, %v; LookupOp = %v, %v", f.keys[i], form, sat, ok, want[i].sat, want[i].ok)
		}
	}
	for i, x := range f.keys {
		sats, oks := f.batch.results(token(), nil, []pdm.Word{x})
		check("LookupBatchInto of one key", i, sats[0], oks[0])
		sats, oks = f.batch.results(nil, []*pdm.Op{token()}, []pdm.Word{x})
		check("shared round of 1", i, sats[0], oks[0])
		if f.try != nil {
			sat, ok, err := f.try(x)
			if err != nil {
				t.Fatalf("key %d: LookupTry without an injector: %v", x, err)
			}
			check("LookupTry", i, sat, ok)
		}
	}
	const round = 8
	for lo := 0; lo+round <= len(f.keys); lo += round {
		shared := make([]*pdm.Op, round)
		for j := range shared {
			shared[j] = token()
		}
		sats, oks := f.batch.results(nil, shared, f.keys[lo:lo+round])
		for j := range shared {
			check("shared round of 8", lo+j, sats[j], oks[j])
		}
	}

	// Into caller buffers with room, as one batch token or as a shared
	// round: a hit is written into its own entry's array, whatever it
	// held, and a miss's entry is nil.
	w := 0
	for _, a := range want {
		if a.ok {
			w = len(a.sat)
			break
		}
	}
	for lo := 0; lo+round <= len(f.keys); lo += round {
		buf := make([]pdm.Word, round*w)
		sats, oks := make([][]pdm.Word, round), make([]bool, round)
		shared := make([]*pdm.Op, round)
		for j := range sats {
			buf[j*w] = 0xdead
			sats[j], shared[j] = buf[j*w:j*w+1:(j+1)*w], token()
		}
		if lo/round%2 == 0 {
			f.batch(token(), nil, f.keys[lo:lo+round], sats, oks)
		} else {
			f.batch(nil, shared, f.keys[lo:lo+round], sats, oks)
		}
		for j := range sats {
			check("LookupBatchInto into caller buffers", lo+j, sats[j], oks[j])
			if oks[j] && &sats[j][0] != &buf[j*w] {
				t.Fatalf("key %d: the answer was not written into the caller's buffer", f.keys[lo+j])
			}
			if !oks[j] && sats[j] != nil {
				t.Fatalf("key %d: a miss left %v in the caller's entry, want nil", f.keys[lo+j], sats[j])
			}
		}
	}
}
