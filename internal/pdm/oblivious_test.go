package pdm_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// The machine has one read body and one write body, each run in a
// fault-aware mode (the Try forms) or a fault-oblivious one (the plain
// forms). These tests pin the mode switch on random batches, small
// (served inline, up to pdm's smallBatchMax of 32 addresses) and wide
// (partitioned by disk and, past 128 blocks, fanned out to workers),
// under both cost models.

const (
	obD, obB    = 8, 4
	obRows      = 24 // blocks per disk a batch may address
	obSmallMax  = 32 // pdm's smallBatchMax
	obWideMax   = 300
	obBatches   = 40
	obStallCost = 3
)

var obModels = []pdm.Model{pdm.ParallelDisk, pdm.DiskHead}

// obBatch draws a batch of random addresses, repeats allowed, small on
// even rounds and wide on odd ones.
func obBatch(rng *rand.Rand, round int) []pdm.Addr {
	n := 1 + rng.Intn(obSmallMax)
	if round%2 == 1 {
		n = obSmallMax + 1 + rng.Intn(obWideMax-obSmallMax)
	}
	addrs := make([]pdm.Addr, n)
	for i := range addrs {
		addrs[i] = pdm.Addr{Disk: rng.Intn(obD), Block: rng.Intn(obRows)}
	}
	return addrs
}

// obWrites pairs addrs with random data of random length.
func obWrites(rng *rand.Rand, addrs []pdm.Addr) []pdm.BlockWrite {
	ws := make([]pdm.BlockWrite, len(addrs))
	for i, a := range addrs {
		data := make([]pdm.Word, 1+rng.Intn(obB))
		for j := range data {
			data[j] = rng.Uint64()
		}
		ws[i] = pdm.BlockWrite{Addr: a, Data: data}
	}
	return ws
}

// countingInjector fail-stops, corrupts and stalls in turn, and counts
// how often the machine consulted it.
type countingInjector struct{ calls int }

func (c *countingInjector) Access(pdm.EventKind, pdm.Addr) pdm.Fault {
	c.calls++
	switch c.calls % 3 {
	case 0:
		return pdm.Fault{Kind: pdm.FaultFailStop}
	case 1:
		return pdm.Fault{Kind: pdm.FaultCorrupt, Bit: uint(c.calls)}
	default:
		return pdm.Fault{Kind: pdm.FaultStall, Stall: obStallCost}
	}
}

// obStore is the expected content of every block the test addresses.
type obStore map[pdm.Addr][]pdm.Word

func (s obStore) apply(ws []pdm.BlockWrite) {
	for _, w := range ws {
		blk := s[w.Addr]
		if blk == nil {
			blk = make([]pdm.Word, obB)
			s[w.Addr] = blk
		}
		copy(blk, w.Data)
	}
}

func (s obStore) check(t *testing.T, what string, addrs []pdm.Addr, got [][]pdm.Word) {
	t.Helper()
	if len(got) != len(addrs) {
		t.Fatalf("%s: %d blocks for %d addresses", what, len(got), len(addrs))
	}
	zero := make([]pdm.Word, obB)
	for i, a := range addrs {
		want := s[a]
		if want == nil {
			want = zero
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%s: block %v = %x, want %x", what, a, got[i], want)
		}
	}
}

// With an injector that would fail, corrupt or stall every access, the
// plain forms never consult it: they store and return the words as
// written, hand back a FlipBit-damaged block damaged rather than
// failing it, and leave the fault, degraded and health state alone.
func TestObliviousFormsIgnoreTheFaultLayer(t *testing.T) {
	for _, model := range obModels {
		t.Run(model.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(model) + 1))
			m := pdm.NewMachine(pdm.Config{D: obD, B: obB, Model: model, Workers: 4})
			fi := &countingInjector{}
			m.SetFaultInjector(fi)
			health := m.Health()
			store := obStore{}
			var rb pdm.ReadBuf
			for round := 0; round < obBatches; round++ {
				ws := obWrites(rng, obBatch(rng, round))
				op := m.NewOp(round, len(ws))
				switch round % 3 {
				case 0:
					m.BatchWrite(ws)
				case 1:
					m.BatchWriteOp(op, ws)
				default:
					for _, w := range ws {
						m.WriteBlock(w.Addr, w.Data)
					}
				}
				store.apply(ws)

				// Damage one written block behind the checksum's back: the
				// oblivious read returns the flipped word.
				victim := ws[rng.Intn(len(ws))].Addr
				bit := uint(rng.Intn(64 * obB))
				m.FlipBit(victim, bit)
				store[victim][bit/64] ^= 1 << (bit % 64)

				addrs := obBatch(rng, round)
				addrs[rng.Intn(len(addrs))] = victim
				what := fmt.Sprintf("round %d", round)
				store.check(t, what+" BatchRead", addrs, m.BatchRead(addrs))
				store.check(t, what+" BatchReadInto", addrs, m.BatchReadInto(&rb, op, nil, addrs))
				store.check(t, what+" BatchReadOp", addrs, m.BatchReadOp(op, addrs))
				store.check(t, what+" BatchReadShared", addrs, m.BatchReadShared([]*pdm.Op{op, m.NewOp(-1, 1)}, addrs))
				store.check(t, what+" ReadBlock", addrs[:1], [][]pdm.Word{m.ReadBlock(addrs[0])})
			}
			if fi.calls != 0 {
				t.Errorf("plain forms consulted the injector %d times", fi.calls)
			}
			if m.Degraded() || m.FaultCount() != 0 {
				t.Errorf("plain forms left Degraded %v, FaultCount %d", m.Degraded(), m.FaultCount())
			}
			if got := m.Health(); !reflect.DeepEqual(got, health) {
				t.Errorf("plain forms moved health:\n%+v\nwant\n%+v", got, health)
			}
			if n := len(m.VerifyChecksums()); n == 0 {
				t.Error("FlipBit damage vanished: oblivious writes and reads must leave it latent")
			}
		})
	}
}

// obRun drives one machine through a seeded mix of writes and reads,
// plain forms or Try forms, under a JSONL trace, and returns what a
// caller can observe of it.
type obRun struct {
	reads    [][]pdm.Word
	blocks   [][]pdm.Word
	stats    pdm.Stats
	perDisk  []int64
	opCounts [][3]int64
	trace    []byte
}

func obDrive(t *testing.T, model pdm.Model, try bool) obRun {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(model) + 7))
	m := pdm.NewMachine(pdm.Config{D: obD, B: obB, Model: model, Workers: 4})
	var trace bytes.Buffer
	jw := obs.NewJSONLWriter(&trace)
	m.SetHook(jw)
	var run obRun
	var ops []*pdm.Op
	var rb pdm.ReadBuf
	keep := func(blocks [][]pdm.Word, err error) {
		if err != nil {
			t.Fatalf("try=%v: fault-free read failed: %v", try, err)
		}
		for _, b := range blocks {
			run.reads = append(run.reads, append([]pdm.Word(nil), b...))
		}
	}
	for round := 0; round < obBatches; round++ {
		op := m.NewOp(round%3, 1)
		ops = append(ops, op)
		end := m.OpSpan(op, pdm.TagInsert)
		ws := obWrites(rng, obBatch(rng, round))
		if try {
			if err := m.TryBatchWriteOp(op, ws); err != nil {
				t.Fatalf("fault-free write failed: %v", err)
			}
		} else {
			m.BatchWriteOp(op, ws)
		}
		end.End()

		addrs := obBatch(rng, round)
		end = m.OpSpan(op, pdm.TagLookup)
		if try {
			keep(m.TryBatchReadOp(op, addrs))
			keep(m.TryBatchReadInto(&rb, op, nil, addrs))
			keep(m.TryBatchReadInto(&rb, nil, ops[len(ops)/2:], addrs))
			keep(m.TryBatchRead(addrs))
		} else {
			keep(m.BatchReadOp(op, addrs), nil)
			keep(m.BatchReadInto(&rb, op, nil, addrs), nil)
			keep(m.BatchReadShared(ops[len(ops)/2:], addrs), nil)
			keep(m.BatchRead(addrs), nil)
		}
		end.End()
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < obD; d++ {
		for b := 0; b < obRows; b++ {
			run.blocks = append(run.blocks, m.Peek(pdm.Addr{Disk: d, Block: b}))
		}
	}
	run.stats, run.perDisk, run.trace = m.Stats(), m.PerDiskIOs(), trace.Bytes()
	for _, op := range ops {
		run.opCounts = append(run.opCounts, [3]int64{op.Steps(), op.Reads(), op.Writes()})
	}
	return run
}

// With no injector installed, a Try form and its plain form are the
// same batch: identical blocks, Stats, per-disk tallies, per-op
// charges, read results and JSONL event bytes.
func TestObliviousFormsMatchTryFormsWithoutInjector(t *testing.T) {
	for _, model := range obModels {
		t.Run(model.String(), func(t *testing.T) {
			plain, try := obDrive(t, model, false), obDrive(t, model, true)
			if !reflect.DeepEqual(plain.reads, try.reads) {
				t.Error("read results differ")
			}
			if !reflect.DeepEqual(plain.blocks, try.blocks) {
				t.Error("stored blocks differ")
			}
			if plain.stats != try.stats {
				t.Errorf("Stats: plain %+v, try %+v", plain.stats, try.stats)
			}
			if !reflect.DeepEqual(plain.perDisk, try.perDisk) {
				t.Errorf("PerDiskIOs: plain %v, try %v", plain.perDisk, try.perDisk)
			}
			if !reflect.DeepEqual(plain.opCounts, try.opCounts) {
				t.Errorf("per-op steps/reads/writes: plain %v, try %v", plain.opCounts, try.opCounts)
			}
			if !bytes.Equal(plain.trace, try.trace) {
				t.Errorf("JSONL traces differ (%d vs %d bytes)", len(plain.trace), len(try.trace))
			}
			if plain.stats.MaxBatch < 2 || len(plain.trace) == 0 {
				t.Errorf("batches too tame to test anything: MaxBatch %d, %d trace bytes", plain.stats.MaxBatch, len(plain.trace))
			}
		})
	}
}
