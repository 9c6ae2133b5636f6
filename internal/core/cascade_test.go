package core

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"pdmdict/internal/bitpack"
	"pdmdict/internal/fault"
	"pdmdict/internal/pdm"
)

// Property: both cascade layouts agree with a map oracle under random
// workloads, each with its own configuration.
func TestPropertyCascadeMatchesMap(t *testing.T) {
	for _, c := range []struct {
		name  string
		keys  uint32 // an op's key is the op mod keys
		build func(t *testing.T) *cascade
	}{
		{"dynamic", 131, func(t *testing.T) *cascade {
			dd, _ := newDynamic(t, 20, 64, DynamicConfig{Capacity: 200, SatWords: 1, Seed: 16})
			return &dd.cascade
		}},
		{"oneprobe", 173, func(t *testing.T) *cascade {
			op, _ := newOneProbe(t, 8, 64, OneProbeConfig{Capacity: 150, SatWords: 1, Seed: 8})
			return &op.cascade
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := func(ops []uint32) bool {
				cs := c.build(t)
				oracle := map[pdm.Word]pdm.Word{}
				for _, op := range ops {
					k := pdm.Word(op % c.keys)
					switch op % 3 {
					case 0:
						v := pdm.Word(op)
						if cs.Insert(k, []pdm.Word{v}) == nil {
							oracle[k] = v
						}
					case 1:
						_, okOracle := oracle[k]
						if cs.Delete(k) != okOracle {
							return false
						}
						delete(oracle, k)
					case 2:
						sat, ok := cs.Lookup(k)
						v, okOracle := oracle[k]
						if ok != okOracle || (ok && sat[0] != v) {
							return false
						}
					}
				}
				return cs.Len() == len(oracle)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

// failedAddrs lists the addresses of every failed block access err
// reports, through any wrapping or joining.
func failedAddrs(err error) []pdm.Addr {
	var out []pdm.Addr
	var walk func(error)
	walk = func(e error) {
		switch e := e.(type) {
		case *pdm.BlockError:
			out = append(out, e.Addr)
		case interface{ Unwrap() []error }:
			for _, w := range e.Unwrap() {
				walk(w)
			}
		case interface{ Unwrap() error }:
			walk(e.Unwrap())
		}
	}
	walk(err)
	return out
}

// storedChain reads x's membership record and chain off the disks,
// fault-free: its resident level, whether it is stored, and the
// addresses of the field blocks its answer needs there — the fields a
// decode walks from the head until the satellite is complete, in chain
// order. It is the reference the lookup's chain rule is checked
// against, so it walks the stored bits itself.
func storedChain(c *cascade, x pdm.Word) (level int, found bool, chain []pdm.Addr) {
	sc := new(probeScratch)
	head, level, found, ok := c.residenceLocked(sc, x, peekAll(c.m, c.memb.probeAddrs(sc, x, nil)))
	if !ok {
		return level, found, nil
	}
	addrs := c.levelAddrs(&c.levels[level], x, nil)
	fields := c.fieldsOf(sc, &c.levels[level], x, peekAll(c.m, addrs))
	need := 64 * c.satWords
	for cur := head; cur >= 0 && cur < c.d && fieldUsed(fields[cur]); {
		chain = append(chain, addrs[cur])
		r := bitpack.NewReaderAt(fields[cur].blk, fields[cur].off, c.fieldBits)
		r.ReadBits(1)
		diff := r.ReadUnary()
		if need -= r.Remaining(); need <= 0 || diff == 0 {
			break
		}
		cur += diff
	}
	return level, true, chain
}

// LookupTry on the stacked layout, with one fail-stopped disk among a
// DynamicDict's arrays: no call answers wrongly. A key is unavailable —
// an error wrapping ErrDiskFailed — exactly when a block it needs lies
// on that disk: its membership buckets, and for a stored key the field
// blocks its chain walks at its resident level. Every absent key is
// settled by its membership buckets alone, and stored keys, shallow or
// deep, fall on both sides.
func TestDynamicLookupTryFailedArrayDisk(t *testing.T) {
	const n, d = 512, 20
	dd, m := newDynamic(t, d, 64, DynamicConfig{Capacity: n, SatWords: 8, Seed: 6})
	recs := makeRecords(n, 8, 6)
	oracle := map[pdm.Word][]pdm.Word{}
	stored := make([]pdm.Word, n)
	for i, r := range recs {
		if err := dd.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
		oracle[r.Key] = r.Sat
		stored[i] = r.Key
	}
	const failed = d + 5
	plan := fault.NewPlan(1)
	plan.FailDisk(failed)
	m.SetFaultInjector(plan)

	var shallow, deep, answered, absent int
	var shallowKey, deepKey pdm.Word
	var shallowLost, deepLost pdm.Addr
	for _, x := range withAbsent(stored, 64) {
		level, found, chain := storedChain(&dd.cascade, x)
		needs := append(dd.memb.probeAddrs(new(probeScratch), x, nil), chain...)
		i := slices.IndexFunc(needs, func(a pdm.Addr) bool { return a.Disk == failed })
		touches := i >= 0
		sat, ok, err := dd.LookupTry(x)
		switch {
		case touches:
			if err == nil || !errors.Is(err, pdm.ErrDiskFailed) || ok || sat != nil {
				t.Fatalf("key %d (level %d): LookupTry = %v, %v, %v; want unavailable with ErrDiskFailed", x, level, sat, ok, err)
			}
		case err != nil:
			t.Fatalf("key %d: LookupTry error %v, but none of its blocks is on disk %d", x, err, failed)
		case ok != found || !slices.Equal(sat, oracle[x]):
			t.Fatalf("key %d: LookupTry = %v, %v; want %v, %v", x, sat, ok, oracle[x], found)
		}
		switch {
		case !found:
			absent++
		case !touches:
			answered++
		case level == 0:
			shallow++
			shallowKey, shallowLost = x, needs[i]
		default:
			deep++
			deepKey, deepLost = x, needs[i]
		}
	}
	if shallow == 0 || deep == 0 || absent == 0 || answered == 0 {
		t.Fatalf("%d level-0 and %d deep keys unavailable, %d answered, %d absent; want each kind", shallow, deep, answered, absent)
	}

	// Both rounds fail: in one merged lookup the level-0 key is left
	// unsettled by round one and the deep key by round two, which reads
	// into round one's buffer. The error must still name the level-0
	// key's block on the failed disk, next to the deep key's.
	keys := []pdm.Word{shallowKey, deepKey}
	sats, oks := make([][]pdm.Word, 2), make([]bool, 2)
	inconclusive, err := dd.lookup(nil, nil, keys, sats, oks, true)
	if inconclusive != 2 || oks[0] || oks[1] {
		t.Fatalf("merged lookup: %d inconclusive, oks %v; want both unsettled", inconclusive, oks)
	}
	lost := failedAddrs(err)
	for _, want := range []pdm.Addr{shallowLost, deepLost} {
		if !slices.Contains(lost, want) {
			t.Errorf("merged lookup error %v does not name failed block %v", err, want)
		}
	}
}

// A chain level settles a key from the fields on its chain alone. With
// level disk 25 of a 40-disk DynamicDict fail-stopped, every stored key
// whose chain avoids that disk answers correctly — 26 of 400 at this
// seed, whose chains start low and, with fields packed to about σ/t
// bits, walk all t = 14 of their stripes — and every other stored key
// is inconclusive, singly and in one merged lookup. Absent keys are settled by the membership buckets. No answer
// is wrong.
func TestCascadeChainSettlesOffChainFailure(t *testing.T) {
	const n, failed = 400, 25
	dd, m := newDynamic(t, 20, 64, DynamicConfig{Capacity: n, SatWords: 8, Seed: 1})
	recs := makeRecords(n, 8, 1)
	for _, r := range recs {
		if err := dd.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
	}
	avoids, stored := make([]bool, n), make([]pdm.Word, n)
	for i, r := range recs {
		stored[i] = r.Key
		_, _, chain := storedChain(&dd.cascade, r.Key)
		avoids[i] = !slices.ContainsFunc(chain, func(a pdm.Addr) bool { return a.Disk == failed })
	}
	m.SetFaultInjector(failStop(failed))

	answered := 0
	for i, r := range recs {
		sat, ok, err := dd.LookupTry(r.Key)
		switch {
		case !avoids[i]:
			if err == nil || !errors.Is(err, pdm.ErrDiskFailed) || ok || sat != nil {
				t.Fatalf("key %d: LookupTry = %v, %v, %v; its chain crosses disk %d, want inconclusive", r.Key, sat, ok, err, failed)
			}
		case err != nil || !ok || !slices.Equal(sat, r.Sat):
			t.Fatalf("key %d: LookupTry = %v, %v, %v; its chain avoids disk %d, want %v", r.Key, sat, ok, err, failed, r.Sat)
		default:
			answered++
		}
	}
	if answered != 26 {
		t.Errorf("%d of %d stored keys answered, want 26", answered, n)
	}
	keys := withAbsent(stored, n)
	for _, x := range keys[n:] {
		if sat, ok, err := dd.LookupTry(x); err != nil || ok {
			t.Fatalf("absent key %d: LookupTry = %v, %v, %v", x, sat, ok, err)
		}
	}

	sats, oks := make([][]pdm.Word, len(keys)), make([]bool, len(keys))
	inconclusive, err := dd.lookup(nil, nil, keys, sats, oks, true)
	if inconclusive != n-answered || !errors.Is(err, pdm.ErrDiskFailed) {
		t.Fatalf("merged lookup: %d inconclusive, error %v; want %d", inconclusive, err, n-answered)
	}
	for i, x := range keys {
		want := i < n && avoids[i]
		if oks[i] != want || want && !slices.Equal(sats[i], recs[i].Sat) {
			t.Fatalf("key %d: merged LookupTry = %v, %v; want present %v", x, sats[i], oks[i], want)
		}
	}
}

// failOnce fails each listed address transiently on its first read.
type failOnce map[pdm.Addr]bool

func (f failOnce) Access(kind pdm.EventKind, a pdm.Addr) pdm.Fault {
	if kind == pdm.EventRead && f[a] {
		delete(f, a)
		return pdm.Fault{Kind: pdm.FaultTransient}
	}
	return pdm.Fault{}
}

// Round two retries by the same chain rule as round one: a deep key
// whose level read loses one field off its chain answers in two
// parallel I/Os with no retry, and one that loses the head of its chain
// pays exactly one retry round.
func TestCascadeRoundTwoRetriesOnlyChainFields(t *testing.T) {
	dd, m := newDynamic(t, 20, 64, DynamicConfig{Capacity: 400, SatWords: 2, Slack: 2, Seed: 3})
	recs := makeRecords(400, 2, 3)
	for _, r := range recs {
		if err := dd.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
	}
	deep := 0
	for _, r := range recs {
		level, _, chain := storedChain(&dd.cascade, r.Key)
		if level == 0 {
			continue
		}
		deep++
		all := dd.levelAddrs(&dd.levels[level], r.Key, nil)
		off := all[slices.IndexFunc(all, func(a pdm.Addr) bool { return !slices.Contains(chain, a) })]
		for _, c := range []struct {
			lost         pdm.Addr
			ios, retries int64
		}{
			{off, 2, 0},
			{chain[0], 3, 1},
		} {
			m.SetFaultInjector(failOnce{c.lost: true})
			ios, retries := m.Stats().ParallelIOs, m.Health().Retries
			sat, ok, err := dd.LookupTry(r.Key)
			if err != nil || !ok || !slices.Equal(sat, r.Sat) {
				t.Fatalf("key %d, level %d, %v lost once: LookupTry = %v, %v, %v", r.Key, level, c.lost, sat, ok, err)
			}
			ios, retries = m.Stats().ParallelIOs-ios, m.Health().Retries-retries
			if ios != c.ios || retries != c.retries {
				t.Errorf("key %d, level %d, %v lost once: %d parallel I/Os and %d retry rounds, want %d and %d", r.Key, level, c.lost, ios, retries, c.ios, c.retries)
			}
		}
	}
	m.SetFaultInjector(nil)
	if deep == 0 {
		t.Fatal("no key below A_1")
	}
}
