package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pdmdict/internal/bucket"
	"pdmdict/internal/fault"
	"pdmdict/internal/pdm"
)

// accessLog wraps a fault injector and records the decision for every
// read access, in the order the machine asks: a batch draws all of its
// addresses before any retry is issued, so a lookup's first round is
// the log's first len(round) entries.
type accessLog struct {
	fi    pdm.FaultInjector
	reads []decision
}

type decision struct {
	a    pdm.Addr
	kind pdm.FaultKind
}

func (l *accessLog) Access(kind pdm.EventKind, a pdm.Addr) pdm.Fault {
	f := l.fi.Access(kind, a)
	if kind == pdm.EventRead {
		l.reads = append(l.reads, decision{a, f.Kind})
	}
	return f
}

// tryTarget is one structure under the property: its fault-aware lookup
// forms, the addresses a key's first round reads, and an oracle for
// whether round one settled the key given which blocks failed.
type tryTarget struct {
	m        *pdm.Machine
	one      func(x pdm.Word) ([]pdm.Word, bool, error)
	batch    func(keys []pdm.Word, sats [][]pdm.Word, oks []bool) (int, error)
	round1   func(x pdm.Word) []pdm.Addr
	settled  func(x pdm.Word, failed map[pdm.Addr]pdm.FaultKind) (settled, transient bool)
	round2   func(x pdm.Word) []pdm.Addr // the later, non-retry round a deep key reads
	rounds   int                         // read rounds a lookup may take, each with its own retry budget
	scrubbed func() []pdm.Addr
}

// settledBy is the oracle for a Basic probe, from the stored blocks
// rather than the read: the key is settled when the blocks that did not
// fail already prove it present (the Decode-based reference scan), or
// when none failed. transient reports a transiently failed block among
// an unsettled key's, which a retry could recover.
func settledBy(bd *BasicDict, x pdm.Word, addrs []pdm.Addr, failed map[pdm.Addr]pdm.FaultKind) (settled, transient bool) {
	view := make([][]pdm.Word, len(addrs))
	anyFailed := false
	for i, a := range addrs {
		if k, bad := failed[a]; bad {
			anyFailed = true
			transient = transient || k == pdm.FaultTransient
			continue
		}
		view[i] = bd.reg.m.Peek(a)
	}
	if _, ok, _ := refLookup(bd, x, view); ok || !anyFailed {
		return true, false
	}
	return false, transient
}

func basicTarget(bd *BasicDict) tryTarget {
	probe := func(x pdm.Word) []pdm.Addr { return bd.probeAddrs(new(probeScratch), x, nil) }
	return tryTarget{
		m:   bd.reg.m,
		one: bd.LookupTry,
		batch: func(keys []pdm.Word, sats [][]pdm.Word, oks []bool) (int, error) {
			return bd.lookup(nil, nil, keys, sats, oks, true)
		},
		round1: probe,
		settled: func(x pdm.Word, failed map[pdm.Addr]pdm.FaultKind) (bool, bool) {
			return settledBy(bd, x, probe(x), failed)
		},
		round2:   func(pdm.Word) []pdm.Addr { return nil },
		rounds:   1,
		scrubbed: bd.Scrub,
	}
}

// dynamicTarget reads each key's resident level and chain off the
// disks with storedChain, which no fault reaches.
func dynamicTarget(dd *DynamicDict) tryTarget {
	c := &dd.cascade
	levelAddrs := func(x pdm.Word, li int) []pdm.Addr {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.levelAddrs(&c.levels[li], x, nil)
	}
	return tryTarget{
		m:   c.m,
		one: c.LookupTry,
		batch: func(keys []pdm.Word, sats [][]pdm.Word, oks []bool) (int, error) {
			return c.lookup(nil, nil, keys, sats, oks, true)
		},
		round1: func(x pdm.Word) []pdm.Addr {
			c.mu.RLock()
			defer c.mu.RUnlock()
			return c.probeLocked(new(probeScratch), x, nil)
		},
		settled: func(x pdm.Word, failed map[pdm.Addr]pdm.FaultKind) (bool, bool) {
			memb := c.memb.probeAddrs(new(probeScratch), x, nil)
			if ok, transient := settledBy(c.memb, x, memb, failed); !ok {
				return false, transient
			}
			li, present, chain := storedChain(c, x)
			if !present || li >= c.pre {
				return true, false
			}
			// A key on a probed level needs the fields its chain walks.
			// The walk stops at the first that failed, and the lookup
			// retries every failed field from that stripe on, where the
			// rest of the chain lies.
			gap := slices.IndexFunc(chain, func(a pdm.Addr) bool { _, bad := failed[a]; return bad })
			if gap < 0 {
				return true, false
			}
			all := levelAddrs(x, li)
			transient := false
			for _, a := range all[slices.Index(all, chain[gap]):] {
				transient = transient || failed[a] == pdm.FaultTransient
			}
			return false, transient
		},
		round2: func(x pdm.Word) []pdm.Addr {
			if li, present, _ := storedChain(c, x); present && li >= c.pre {
				return levelAddrs(x, li)
			}
			return nil
		},
		rounds: 2,
	}
}

// The retry rule's property, over seeded plans of transient reads,
// stalls, scheduled corruptions and one fail-stopped disk, on Basic
// with one fragment, with four, and with two replicas, and on Dynamic,
// through single and merged fault-aware lookups:
//   - every conclusive answer is the map oracle's, and a merged lookup
//     counts at least as many inconclusive keys as it answered "absent"
//     for stored ones;
//   - a key that round one settled costs no retry batch (a merged
//     lookup retries only blocks of keys round one left unsettled, or of
//     a deep key's second round), while an unsettled key with a
//     transiently failed block it needs gets one;
//   - no lookup issues more than the policy's retries per read round.
func TestLookupTryRetriesOnlyNeededBlocks(t *testing.T) {
	const n = 160
	// Per structure, how many lookups round one settled despite a failed
	// block, and how many it left needing a retry: both must occur, or
	// the property holds vacuously.
	spared, retried := map[string]int{}, map[string]int{}
	for seed := int64(1); seed <= 5; seed++ {
		for _, s := range []struct {
			name  string
			build func(t *testing.T, recs []bucket.Record) tryTarget
		}{
			{"basic-k1", basicBuild(BasicConfig{})},
			{"basic-fragments-k4", basicBuild(BasicConfig{K: 4})},
			{"basic-replicas-2", basicBuild(BasicConfig{K: 2, Replicate: true})},
			{"dynamic", func(t *testing.T, recs []bucket.Record) tryTarget {
				// Slack 2 leaves about one key in eight on a deeper level,
				// which a second round reads.
				dd, err := NewDynamic(pdm.NewMachine(pdm.Config{D: 40, B: 64}), DynamicConfig{Capacity: n, SatWords: 2, Seed: uint64(seed), Slack: 2})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					if err := dd.Insert(r.Key, r.Sat); err != nil {
						t.Fatal(err)
					}
				}
				return dynamicTarget(dd)
			}},
		} {
			t.Run(fmt.Sprintf("%s/seed=%d", s.name, seed), func(t *testing.T) {
				recs := makeRecords(n, 2, seed)
				sp, re := checkRetryProperty(t, s.build(t, recs), recs, seed)
				spared[s.name] += sp
				retried[s.name] += re
			})
		}
	}
	for name, sp := range spared {
		if sp == 0 || retried[name] == 0 {
			t.Errorf("%s: %d lookups spared a retry and %d needed one; the plans exercise too little", name, sp, retried[name])
		}
	}
}

func basicBuild(cfg BasicConfig) func(t *testing.T, recs []bucket.Record) tryTarget {
	return func(t *testing.T, recs []bucket.Record) tryTarget {
		cfg.Capacity, cfg.SatWords, cfg.Seed = len(recs), 2, 3
		bd, _ := newBasic(t, 8, 32, cfg)
		for _, r := range recs {
			if err := bd.Insert(r.Key, r.Sat); err != nil {
				t.Fatal(err)
			}
		}
		return basicTarget(bd)
	}
}

// seededPlan is the property's fault mix: 8 % transient reads, 3 %
// two-step stalls, one fail-stopped disk and a few scheduled bit flips
// on blocks some stored key's first round reads.
func seededPlan(tt tryTarget, recs []bucket.Record, seed int64) *fault.Plan {
	rng := rand.New(rand.NewSource(seed))
	plan := fault.NewPlan(uint64(seed) * 7919)
	plan.SetTransient(0.08)
	plan.SetStall(0.03, 2)
	plan.FailDisk(rng.Intn(tt.m.D()))
	for range 4 {
		addrs := tt.round1(recs[rng.Intn(len(recs))].Key)
		plan.CorruptAt(addrs[rng.Intn(len(addrs))], uint(rng.Intn(64)))
	}
	return plan
}

func checkRetryProperty(t *testing.T, tt tryTarget, recs []bucket.Record, seed int64) (spared, retried int) {
	oracle := make(map[pdm.Word][]pdm.Word, len(recs))
	for _, r := range recs {
		oracle[r.Key] = r.Sat
	}
	rng := rand.New(rand.NewSource(seed + 100))
	pick := func() pdm.Word {
		if rng.Intn(5) == 0 {
			return pdm.Word(rng.Uint64()>>16) | 1<<50 // absent
		}
		return recs[rng.Intn(len(recs))].Key
	}
	log := &accessLog{fi: seededPlan(tt, recs, seed)}
	tt.m.SetFaultInjector(log)
	defer tt.m.SetFaultInjector(nil)
	damaged := map[pdm.Addr]bool{} // corrupted blocks fail every later verified read

	// run issues one lookup through call and checks the retry rule for
	// keys against the access log.
	run := func(keys []pdm.Word, call func()) {
		log.reads = log.reads[:0]
		retries := tt.m.Health().Retries
		call()
		retries = tt.m.Health().Retries - retries

		var first []pdm.Addr
		for _, x := range keys {
			for _, a := range tt.round1(x) {
				if !slices.Contains(first, a) {
					first = append(first, a)
				}
			}
		}
		if len(log.reads) < len(first) {
			t.Fatalf("keys %v: %d reads logged, round one has %d", keys, len(log.reads), len(first))
		}
		failed := map[pdm.Addr]pdm.FaultKind{}
		for _, r := range log.reads[:len(first)] {
			if !slices.Contains(first, r.a) {
				t.Fatalf("keys %v: round one read %v, outside its probe", keys, r.a)
			}
			switch {
			case r.kind == pdm.FaultFailStop || r.kind == pdm.FaultTransient || r.kind == pdm.FaultCorrupt:
				failed[r.a] = r.kind
			case damaged[r.a]:
				failed[r.a] = pdm.FaultCorrupt
			}
		}
		allSettled, anyTransient, deep := true, false, false
		allowed := map[pdm.Addr]bool{} // what a later read may touch
		for _, x := range keys {
			ok, transient := tt.settled(x, failed)
			if !ok {
				allSettled = false
				anyTransient = anyTransient || transient
				for _, a := range tt.round1(x) {
					allowed[a] = true
				}
			}
			for _, a := range tt.round2(x) {
				allowed[a] = true
				deep = true
			}
		}
		// Round two reads deeper levels, at other blocks than round one,
		// so a later read of a round-one block is a round-one retry.
		reread := 0
		for _, r := range log.reads[len(first):] {
			if slices.Contains(first, r.a) {
				reread++
			}
		}
		switch {
		case allSettled && len(failed) > 0:
			spared++
		case !allSettled && anyTransient:
			retried++
		}
		if retries > int64(tt.rounds*pdm.DefaultRetries) {
			t.Errorf("keys %v: %d retry batches, over %d rounds' budget of %d", keys, retries, tt.rounds, pdm.DefaultRetries)
		}
		if allSettled && (reread > 0 || !deep && retries != 0) {
			t.Errorf("keys %v: round one settled every key, yet %d of its blocks were read again (%d retry batches in all)", keys, reread, retries)
		}
		if !allSettled && anyTransient && retries == 0 {
			t.Errorf("keys %v: an unsettled key lost a block transiently, yet no retry was issued", keys)
		}
		for _, r := range log.reads[len(first):] {
			if !allowed[r.a] {
				t.Errorf("keys %v: read %v after round one; no unsettled key or second round needs it", keys, r.a)
			}
		}
		for _, r := range log.reads {
			if r.kind == pdm.FaultCorrupt {
				damaged[r.a] = true
			}
		}
	}

	for range 120 {
		x := pick()
		var sat []pdm.Word
		var ok bool
		var err error
		run([]pdm.Word{x}, func() { sat, ok, err = tt.one(x) })
		if err != nil {
			continue
		}
		if want, stored := oracle[x]; ok != stored || !slices.Equal(sat, want) {
			t.Fatalf("key %d: LookupTry = %v, %v; oracle = %v, %v", x, sat, ok, want, stored)
		}
	}
	for range 12 {
		keys := make([]pdm.Word, 12)
		for i := range keys {
			keys[i] = pick()
		}
		sats, oks := make([][]pdm.Word, len(keys)), make([]bool, len(keys))
		var inconclusive int
		var err error
		run(keys, func() { inconclusive, err = tt.batch(keys, sats, oks) })
		if (inconclusive == 0) != (err == nil) {
			t.Fatalf("batch %v: %d inconclusive keys with error %v", keys, inconclusive, err)
		}
		falseMisses := 0
		for i, x := range keys {
			want, stored := oracle[x]
			switch {
			case oks[i] && (!stored || !slices.Equal(sats[i], want)):
				t.Fatalf("key %d: merged LookupTry = %v, true; oracle = %v, %v", x, sats[i], want, stored)
			case !oks[i] && stored:
				falseMisses++
			}
		}
		if falseMisses > inconclusive {
			t.Fatalf("batch %v: %d stored keys answered absent, only %d inconclusive", keys, falseMisses, inconclusive)
		}
	}
	return spared, retried
}

// Scrub checks every block, so the retry rule leaves it alone: on a
// fixed plan it issues exactly the retry batches it always has (the
// counts were recorded before lookups learned to skip unneeded blocks).
func TestScrubRetriesEveryFailedBlock(t *testing.T) {
	for _, s := range []struct {
		name    string
		cfg     BasicConfig
		retries int64
		bad     int
	}{
		{"basic-k1", BasicConfig{}, 7, 15},
		{"basic-fragments-k4", BasicConfig{K: 4}, 16, 37},
		{"basic-replicas-2", BasicConfig{K: 2, Replicate: true}, 11, 27},
	} {
		t.Run(s.name, func(t *testing.T) {
			recs := makeRecords(160, 2, 9)
			tt := basicBuild(s.cfg)(t, recs)
			tt.m.SetFaultInjector(seededPlan(tt, recs, 9))
			bad := tt.scrubbed()
			if got := tt.m.Health().Retries; got != s.retries || len(bad) != s.bad {
				t.Errorf("Scrub: %d retry batches and %d bad blocks, want %d and %d", got, len(bad), s.retries, s.bad)
			}
		})
	}
}
