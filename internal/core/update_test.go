package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"pdmdict/internal/bucket"
	"pdmdict/internal/pdm"
)

// updater is the update surface the seeded streams drive.
type updater interface {
	Insert(x pdm.Word, sat []pdm.Word) error
	Delete(x pdm.Word) bool
}

// runUpdateStream inserts every key of pool, then applies a seeded
// stream of ops updates over it: a quarter deletes, the rest inserts of a
// fresh random satellite, which update the keys already present. The
// satellite buffer is reused across inserts, so a structure that kept
// the caller's slice would drift.
func runUpdateStream(t *testing.T, u updater, pool []pdm.Word, satWords, ops int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sat := make([]pdm.Word, satWords)
	for i := -len(pool); i < ops; i++ {
		x := pool[(i+len(pool))%len(pool)]
		if i >= 0 {
			x = pool[rng.Intn(len(pool))]
		}
		if i >= 0 && rng.Intn(4) == 0 {
			u.Delete(x)
			continue
		}
		for w := range sat {
			sat[w] = pdm.Word(rng.Uint64())
		}
		if err := u.Insert(x, sat); err != nil {
			t.Fatalf("op %d: Insert(%d): %v", i, x, err)
		}
	}
}

// keyPool returns n distinct keys.
func keyPool(n int, seed int64) []pdm.Word {
	recs := makeRecords(n, 0, seed)
	keys := make([]pdm.Word, n)
	for i, r := range recs {
		keys[i] = r.Key
	}
	return keys
}

// machineDigest is an FNV-64a digest of every block m has materialised,
// disk by disk, followed by its I/O counters.
func machineDigest(m *pdm.Machine) string {
	h := fnv.New64a()
	var word [8]byte
	for disk, n := range m.BlocksAllocated() {
		for b := 0; b < n; b++ {
			for _, w := range m.Peek(pdm.Addr{Disk: disk, Block: b}) {
				binary.LittleEndian.PutUint64(word[:], w)
				h.Write(word[:])
			}
		}
	}
	fmt.Fprintf(h, "%+v", m.Stats())
	return fmt.Sprintf("%016x", h.Sum64())
}

// dictDigest digests both live structures' machines and the ledger.
func dictDigest(d *Dict) string {
	s := machineDigest(d.active.machine())
	if d.next != nil {
		s += "/" + machineDigest(d.next.machine())
	}
	return fmt.Sprintf("%s %+v", s, d.Stats())
}

// Bit-identity of the update path: after a seeded 4 000-op stream of
// inserts, updates and deletes, every block each structure's machine has
// materialised, and its cost counters, hash to the recorded digests
// (the chained structures' re-recorded when fields were packed at their
// bit width, with the same counters). A change to any bit an update
// writes, or to any parallel I/O it costs, moves a digest. Static's
// build, which shares the chain encoder, is pinned the same way (its
// digests re-recorded, with the same counters, when the build began
// releasing its scratch stripes, which now read as zeros).
func TestUpdateGoldenDigests(t *testing.T) {
	const ops = 4000
	want := map[string]string{
		"basic-k1":        "069297f80502426d",
		"basic-k4":        "aa143ff585131423",
		"basic-replicas2": "dbcdbd616009c95f",
		"dynamic-deep":    "72c6fff608cdfbc4",
		"oneprobe":        "92f305e04d9f01b3",
		"static-case-a":   "8b5501b6dfc58706",
		"static-case-b":   "6390180d26f67348",
		"dict":            "60cc5f7970691247 {Ops:4300 ParallelIOs:10159 WorstOp:19 Rebuilds:3}",
		"dict-oneprobe":   "b36f5b9645cfc488 {Ops:4300 ParallelIOs:10159 WorstOp:19 Rebuilds:3}",
	}
	got := map[string]string{}

	for _, c := range []struct {
		name string
		cfg  BasicConfig
	}{
		{"basic-k1", BasicConfig{}},
		{"basic-k4", BasicConfig{K: 4}},
		{"basic-replicas2", BasicConfig{K: 2, Replicate: true}},
	} {
		const n = 200
		cfg := c.cfg
		cfg.Capacity, cfg.SatWords, cfg.Seed = n, 3, 11
		bd, m := newBasic(t, 8, 32, cfg)
		runUpdateStream(t, bd, keyPool(n, 11), 3, ops, 11)
		got[c.name] = machineDigest(m)
	}

	{
		const n = 512
		m := pdm.NewMachine(pdm.Config{D: 40, B: 64})
		dd, err := NewDynamic(m, DynamicConfig{Capacity: n, SatWords: 2, Slack: 2, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		runUpdateStream(t, dd, keyPool(n, 12), 2, ops, 12)
		if counts := dd.LevelCounts(); counts[0] == dd.Len() {
			t.Fatalf("level counts %v: no key below A_1", counts)
		}
		got["dynamic-deep"] = machineDigest(m)
	}

	{
		const n = 256
		m := pdm.NewMachine(pdm.Config{D: 40, B: 64})
		op, err := NewOneProbe(m, OneProbeConfig{Capacity: n, SatWords: 2, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		runUpdateStream(t, op, keyPool(n, 13), 2, ops, 13)
		got["oneprobe"] = machineDigest(m)
	}

	for name, c := range map[string]StaticCase{"static-case-a": CaseA, "static-case-b": CaseB} {
		_, m := buildStatic(t, 8, 32, StaticConfig{SatWords: 3, Case: c, Seed: 14}, makeRecords(300, 3, 14))
		got[name] = machineDigest(m)
	}

	for name, oneProbe := range map[string]bool{"dict": false, "dict-oneprobe": true} {
		d := newDict(t, DictConfig{InitialCapacity: 64, SatWords: 2, OneProbe: oneProbe, Seed: 15})
		runUpdateStream(t, d, keyPool(300, 15), 2, ops, 15)
		if d.Stats().Rebuilds == 0 {
			t.Fatalf("%s: no rebuild in the stream", name)
		}
		got[name] = dictDigest(d)
	}

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %q, want %q", name, got[name], w)
		}
	}
}

// fillMembership writes every membership bucket of x full of other keys'
// records, through the machine, so the sub-dictionary must refuse x.
func fillMembership(t *testing.T, memb *BasicDict, x pdm.Word) {
	t.Helper()
	recs := make([]bucket.Record, memb.codec.Capacity())
	for i := range recs {
		recs[i] = bucket.Record{Key: x + 1 + pdm.Word(i), Sat: make([]pdm.Word, memb.codec.SatWords)}
	}
	var writes []pdm.BlockWrite
	for _, a := range memb.probeAddrs(new(probeScratch), x, nil) {
		writes = append(writes, pdm.BlockWrite{Addr: a, Data: memb.codec.Encode(recs)})
	}
	memb.reg.m.BatchWrite(writes)
}

// usedFields counts the fields of x's level-0 neighborhood that read
// back as used.
func usedFields(fields []field) int {
	n := 0
	for _, f := range fields {
		if fieldUsed(f) {
			n++
		}
	}
	return n
}

func peekAll(m *pdm.Machine, addrs []pdm.Addr) [][]pdm.Word {
	blocks := make([][]pdm.Word, len(addrs))
	for i, a := range addrs {
		blocks[i] = m.Peek(a)
	}
	return blocks
}

// A membership sub-dictionary that refuses x (ErrFull) must leave the
// retrieval arrays untouched: the chain is encoded and written only once
// x's membership entry is placed, so no field is left marked used with
// no record pointing at it.
func TestMembershipFullLeavesNoChain(t *testing.T) {
	const x = pdm.Word(4242)
	sat := []pdm.Word{7, 8}

	for _, c := range []struct {
		name  string
		build func(t *testing.T) (*cascade, *pdm.Machine)
	}{
		{"dynamic", func(t *testing.T) (*cascade, *pdm.Machine) {
			dd, m := newDynamic(t, 20, 64, DynamicConfig{Capacity: 64, SatWords: 2, Seed: 21})
			return &dd.cascade, m
		}},
		{"oneprobe", func(t *testing.T) (*cascade, *pdm.Machine) {
			op, m := newOneProbe(t, 10, 64, OneProbeConfig{Capacity: 64, SatWords: 2, Seed: 22})
			return &op.cascade, m
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cs, m := c.build(t)
			fillMembership(t, cs.memb, x)
			if err := cs.Insert(x, sat); err != ErrFull {
				t.Fatalf("Insert = %v, want ErrFull", err)
			}
			lv := &cs.levels[0]
			blocks := peekAll(m, cs.levelAddrs(lv, x, nil))
			if used := usedFields(cs.fieldsOf(new(probeScratch), lv, x, blocks)); used != 0 || lv.count != 0 || cs.Len() != 0 {
				t.Fatalf("after a refused insert: %d of x's level-0 fields used, level count %d, Len %d; want all 0", used, lv.count, cs.Len())
			}
		})
	}
}
