package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"pdmdict/internal/bucket"
	"pdmdict/internal/extsort"
	"pdmdict/internal/pdm"
)

func makeRecords(n, satWords int, seed int64) []bucket.Record {
	rng := rand.New(rand.NewSource(seed))
	seen := map[pdm.Word]bool{}
	recs := make([]bucket.Record, 0, n)
	for len(recs) < n {
		k := pdm.Word(rng.Uint64() % (1 << 48))
		if seen[k] {
			continue
		}
		seen[k] = true
		sat := make([]pdm.Word, satWords)
		for i := range sat {
			sat[i] = k*1000 + pdm.Word(i)
		}
		recs = append(recs, bucket.Record{Key: k, Sat: sat})
	}
	return recs
}

func buildStatic(t *testing.T, d, b int, cfg StaticConfig, recs []bucket.Record) (*StaticDict, *pdm.Machine) {
	t.Helper()
	disks := d
	if cfg.Case == CaseA {
		disks = 2 * d
	}
	m := pdm.NewMachine(pdm.Config{D: disks, B: b})
	sd, err := BuildStatic(m, cfg, recs)
	if err != nil {
		t.Fatalf("BuildStatic: %v", err)
	}
	return sd, m
}

func verifyAll(t *testing.T, sd *StaticDict, recs []bucket.Record) {
	t.Helper()
	for _, r := range recs {
		sat, ok := sd.Lookup(r.Key)
		if !ok {
			t.Fatalf("key %d missing", r.Key)
		}
		for i := range r.Sat {
			if sat[i] != r.Sat[i] {
				t.Fatalf("key %d satellite word %d = %d, want %d", r.Key, i, sat[i], r.Sat[i])
			}
		}
	}
}

func TestStaticCaseBRoundTrip(t *testing.T) {
	recs := makeRecords(300, 3, 1)
	sd, _ := buildStatic(t, 12, 64, StaticConfig{SatWords: 3, Case: CaseB, Seed: 2}, recs)
	verifyAll(t, sd, recs)
	if sd.Len() != 300 {
		t.Errorf("Len = %d", sd.Len())
	}
}

func TestStaticCaseARoundTrip(t *testing.T) {
	recs := makeRecords(300, 3, 3)
	sd, _ := buildStatic(t, 12, 64, StaticConfig{SatWords: 3, Case: CaseA, Seed: 4}, recs)
	verifyAll(t, sd, recs)
}

func TestStaticAbsentKeys(t *testing.T) {
	recs := makeRecords(200, 2, 5)
	for _, cs := range []StaticCase{CaseB, CaseA} {
		sd, _ := buildStatic(t, 12, 64, StaticConfig{SatWords: 2, Case: cs, Seed: 6}, recs)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 500; i++ {
			k := pdm.Word(rng.Uint64()%(1<<48)) | (1 << 50) // outside the key range used
			if _, ok := sd.Lookup(k); ok {
				t.Fatalf("%v: phantom key %d", cs, k)
			}
		}
	}
}

func TestStaticLookupIsOneParallelIO(t *testing.T) {
	recs := makeRecords(400, 2, 8)
	for _, cs := range []StaticCase{CaseB, CaseA} {
		sd, m := buildStatic(t, 12, 64, StaticConfig{SatWords: 2, Case: cs, Seed: 9}, recs)
		for _, r := range recs[:50] {
			before := m.Stats()
			if _, ok := sd.Lookup(r.Key); !ok {
				t.Fatalf("%v: key lost", cs)
			}
			if d := m.Stats().Sub(before).ParallelIOs; d != 1 {
				t.Fatalf("%v: successful lookup = %d parallel I/Os, want 1 (Theorem 6)", cs, d)
			}
		}
		// Unsuccessful lookups: also one probe.
		before := m.Stats()
		sd.Lookup(pdm.Word(1) << 55)
		if d := m.Stats().Sub(before).ParallelIOs; d != 1 {
			t.Errorf("%v: unsuccessful lookup = %d parallel I/Os, want 1", cs, d)
		}
	}
}

func TestStaticZeroSatellite(t *testing.T) {
	recs := makeRecords(100, 0, 10)
	for _, cs := range []StaticCase{CaseB, CaseA} {
		sd, _ := buildStatic(t, 9, 32, StaticConfig{SatWords: 0, Case: cs, Seed: 11}, recs)
		for _, r := range recs {
			if sat, ok := sd.Lookup(r.Key); !ok || len(sat) != 0 {
				t.Fatalf("%v: zero-satellite lookup = %v, %v", cs, sat, ok)
			}
		}
		if sd.Contains(pdm.Word(1) << 55) {
			t.Errorf("%v: phantom membership", cs)
		}
	}
}

func TestStaticLargeSatelliteCaseA(t *testing.T) {
	// Satellite big enough that fields carry several words each and
	// chains genuinely distribute the payload.
	recs := makeRecords(120, 16, 12)
	sd, _ := buildStatic(t, 12, 64, StaticConfig{SatWords: 16, Case: CaseA, Seed: 13}, recs)
	verifyAll(t, sd, recs)
}

func TestStaticEmptyDictionary(t *testing.T) {
	for _, cs := range []StaticCase{CaseB, CaseA} {
		sd, _ := buildStatic(t, 6, 32, StaticConfig{SatWords: 1, Case: cs, Seed: 14}, nil)
		if sd.Len() != 0 {
			t.Errorf("Len = %d", sd.Len())
		}
		if _, ok := sd.Lookup(5); ok {
			t.Errorf("%v: empty dict contains 5", cs)
		}
	}
}

func TestStaticSingleKey(t *testing.T) {
	recs := []bucket.Record{{Key: 42, Sat: []pdm.Word{7}}}
	for _, cs := range []StaticCase{CaseB, CaseA} {
		sd, _ := buildStatic(t, 6, 32, StaticConfig{SatWords: 1, Case: cs, Seed: 15}, recs)
		if sat, ok := sd.Lookup(42); !ok || sat[0] != 7 {
			t.Errorf("%v: Lookup(42) = %v, %v", cs, sat, ok)
		}
	}
}

func TestStaticDuplicateKeysRejected(t *testing.T) {
	recs := []bucket.Record{
		{Key: 1, Sat: []pdm.Word{1}},
		{Key: 1, Sat: []pdm.Word{2}},
	}
	m := pdm.NewMachine(pdm.Config{D: 6, B: 32})
	if _, err := BuildStatic(m, StaticConfig{SatWords: 1, Seed: 16}, recs); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("duplicate keys: err = %v, want ErrDuplicateKey", err)
	}
}

func TestStaticConfigErrors(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 7, B: 32})
	if _, err := BuildStatic(m, StaticConfig{Case: CaseA}, nil); err == nil {
		t.Error("odd disk count accepted for CaseA")
	}
	m2 := pdm.NewMachine(pdm.Config{D: 2, B: 32})
	if _, err := BuildStatic(m2, StaticConfig{}, nil); err == nil {
		t.Error("d=2 accepted")
	}
	m3 := pdm.NewMachine(pdm.Config{D: 8, B: 32})
	if _, err := BuildStatic(m3, StaticConfig{SatWords: -1}, nil); err == nil {
		t.Error("negative SatWords accepted")
	}
	if _, err := BuildStatic(m3, StaticConfig{Slack: 0.1}, nil); err == nil {
		t.Error("tiny slack accepted")
	}
	if _, err := BuildStatic(m3, StaticConfig{MemStripes: 2}, nil); err == nil {
		t.Error("MemStripes=2 accepted")
	}
	// Field too large for a block.
	m4 := pdm.NewMachine(pdm.Config{D: 6, B: 2})
	if _, err := BuildStatic(m4, StaticConfig{SatWords: 40, Case: CaseB}, makeRecords(4, 40, 1)); err == nil {
		t.Error("oversized field accepted")
	}
}

func TestStaticConstructionIOsProportionalToSort(t *testing.T) {
	// Theorem 6: construction time ∝ sorting nd records. Measure both on
	// identical machines and require the ratio to be a modest constant.
	n, d, b, sat := 600, 12, 64, 2
	recs := makeRecords(n, sat, 17)
	sd, _ := buildStatic(t, d, b, StaticConfig{SatWords: sat, Case: CaseB, Seed: 18}, recs)
	build := sd.ConstructionIOs.ParallelIOs

	// Baseline: sort nd two-word records on the same geometry.
	m := pdm.NewMachine(pdm.Config{D: d, B: b})
	v := &extsort.Vec{M: m, Start: 0, RecWords: 2, N: n * d}
	data := make([]pdm.Word, v.Words())
	rng := rand.New(rand.NewSource(19))
	for i := range data {
		data[i] = pdm.Word(rng.Uint64())
	}
	extsort.WriteAll(v, data)
	m.ResetStats()
	extsort.Sort(v, v.SortStripes(8), 8, extsort.ByWord(0))
	sortIOs := m.Stats().ParallelIOs

	if build > 40*sortIOs {
		t.Errorf("construction = %d I/Os vs sort(nd) = %d: ratio %.1f too large",
			build, sortIOs, float64(build)/float64(sortIOs))
	}
}

func TestStaticCaseAPointerBitsWithinBudget(t *testing.T) {
	// The Theorem 6(a) space argument: pointer data < 2d bits/key. We
	// verify indirectly — a satellite needing the whole data budget
	// still round-trips, i.e. the layout honoured its capacity math.
	d := 15
	recs := makeRecords(80, 7, 20)
	sd, _ := buildStatic(t, d, 64, StaticConfig{SatWords: 7, Case: CaseA, Seed: 21}, recs)
	if sd.c.t != (2*d+2)/3 {
		t.Errorf("t = %d, want ⌈2d/3⌉ = %d", sd.c.t, (2*d+2)/3)
	}
	verifyAll(t, sd, recs)
}

func TestStaticManyGeometries(t *testing.T) {
	for _, g := range []struct {
		d, b, n, sat int
		cs           StaticCase
	}{
		{6, 16, 50, 1, CaseB},
		{24, 128, 1000, 4, CaseB},
		{6, 16, 50, 1, CaseA},
		{24, 128, 1000, 4, CaseA},
		{12, 256, 500, 30, CaseA},
	} {
		recs := makeRecords(g.n, g.sat, int64(g.d*1000+g.n))
		sd, _ := buildStatic(t, g.d, g.b, StaticConfig{SatWords: g.sat, Case: g.cs, Seed: uint64(g.n)}, recs)
		verifyAll(t, sd, recs)
	}
}

// CaseA's membership record holds a chain head as the cascade's
// head | level<<8 at level 0, so its degree is at most 255: BuildStatic
// refuses 256 (512 disks), and so does LoadStatic on a snapshot of that
// shape, while 255 builds and loads.
func TestStaticCaseADegreeBound(t *testing.T) {
	cfg := StaticConfig{SatWords: 1, Case: CaseA}
	for _, disks := range []int{510, 512} {
		m := pdm.NewMachine(pdm.Config{D: disks, B: 64})
		_, buildErr := BuildStatic(m, cfg, nil)
		var snap bytes.Buffer
		if err := encodeHeader(&snap, staticHeader{Version: layoutVersion, Cfg: cfg}); err != nil {
			t.Fatal(err)
		}
		if err := writeMachine(&snap, m); err != nil {
			t.Fatal(err)
		}
		_, _, loadErr := LoadStatic(&snap)
		if ok := disks == 510; (buildErr == nil) != ok || (loadErr == nil) != ok {
			t.Errorf("CaseA on %d disks: BuildStatic error %v, LoadStatic error %v; want accepted %v", disks, buildErr, loadErr, ok)
		}
	}
}

// Static's degraded read is the cascade's: with any one disk
// fail-stopped, every conclusive answer is right, and some lookups
// answer while others are inconclusive. A CaseB satellite's shares
// follow stripe order, so a missing field ahead of the last share it
// needs leaves the key open even when a majority of its fields arrived.
func TestStaticLookupTryFailStop(t *testing.T) {
	const n = 200
	recs := makeRecords(n, 3, 13)
	for _, cs := range []StaticCase{CaseA, CaseB} {
		sd, m := buildStatic(t, 12, 64, StaticConfig{SatWords: 3, Case: cs, Seed: 14}, recs)
		stored := make([]pdm.Word, n)
		for i, r := range recs {
			stored[i] = r.Key
		}
		answered, lost := 0, 0
		for disk := range m.D() {
			m.SetFaultInjector(failStop(disk))
			for i, x := range withAbsent(stored, n) {
				sat, ok, err := sd.c.LookupTry(x)
				switch {
				case err != nil:
					if !errors.Is(err, pdm.ErrDiskFailed) || ok || sat != nil {
						t.Fatalf("%v, disk %d down, key %d: LookupTry = %v, %v, %v", cs, disk, x, sat, ok, err)
					}
					lost++
				case ok != (i < n) || i < n && !slices.Equal(sat, recs[i].Sat):
					t.Fatalf("%v, disk %d down, key %d: LookupTry = %v, %v; want present %v", cs, disk, x, sat, ok, i < n)
				default:
					answered++
				}
			}
		}
		m.SetFaultInjector(nil)
		if answered == 0 || lost == 0 {
			t.Errorf("%v: %d answers and %d inconclusive lookups; want both", cs, answered, lost)
		}
	}
}
