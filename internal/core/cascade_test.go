package core

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

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

// LookupTry on the stacked layout, with one fail-stopped disk among a
// DynamicDict's arrays: no call answers wrongly. A key is unavailable —
// an error wrapping ErrDiskFailed — exactly when a block it needs lies
// on that disk: its membership buckets, and for a stored key its
// resident level's d field blocks, one on every array disk. So every
// stored key, shallow or deep, is unavailable, and every absent key is
// settled by its membership buckets alone.
func TestDynamicLookupTryFailedArrayDisk(t *testing.T) {
	const n, d = 512, 20
	dd, m := newDynamic(t, d, 64, DynamicConfig{Capacity: n, SatWords: 2, Seed: 6})
	recs := makeRecords(n, 2, 6)
	oracle := map[pdm.Word][]pdm.Word{}
	stored := make([]pdm.Word, n)
	for i, r := range recs {
		if err := dd.Insert(r.Key, r.Sat); err != nil {
			t.Fatal(err)
		}
		oracle[r.Key] = r.Sat
		stored[i] = r.Key
	}
	// residence reads x's membership record off the disks directly.
	residence := func(x pdm.Word) (level int, ok bool) {
		sc := new(probeScratch)
		addrs := dd.memb.probeAddrs(sc, x, nil)
		_, level, _, ok = dd.residenceLocked(sc, x, peekAll(m, addrs))
		return level, ok
	}

	const failed = d + 5
	plan := fault.NewPlan(1)
	plan.FailDisk(failed)
	m.SetFaultInjector(plan)

	var shallow, deep, absent int
	var shallowKey, deepKey pdm.Word
	for _, x := range withAbsent(stored, 64) {
		needs := dd.memb.probeAddrs(new(probeScratch), x, nil)
		level, found := residence(x)
		if found {
			needs = dd.levelAddrs(&dd.levels[level], x, needs)
		}
		touches := slices.ContainsFunc(needs, func(a pdm.Addr) bool { return a.Disk == failed })
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
		case level == 0:
			shallow++
			shallowKey = x
		default:
			deep++
			deepKey = x
		}
	}
	if shallow == 0 || deep == 0 || absent == 0 {
		t.Fatalf("%d level-0, %d deep, %d absent keys; want each kind", shallow, deep, absent)
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
	deepLevel, _ := residence(deepKey)
	lost := failedAddrs(err)
	for _, want := range []pdm.Addr{
		dd.levelAddrs(&dd.levels[0], shallowKey, nil)[failed-d],
		dd.levelAddrs(&dd.levels[deepLevel], deepKey, nil)[failed-d],
	} {
		if !slices.Contains(lost, want) {
			t.Errorf("merged lookup error %v does not name failed block %v", err, want)
		}
	}
}
