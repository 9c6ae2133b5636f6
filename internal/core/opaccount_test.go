package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// opDict is the token-threaded face shared by all three building-block
// structures.
type opDict interface {
	LookupOp(op *pdm.Op, x pdm.Word) ([]pdm.Word, bool)
	InsertOp(op *pdm.Op, x pdm.Word, sat []pdm.Word) error
	DeleteOp(op *pdm.Op, x pdm.Word) bool
}

// opStructures builds each structure fresh for one property-test run.
var opStructures = []struct {
	name  string
	build func(t *testing.T, seed uint64) (opDict, *pdm.Machine)
}{
	{"basic", func(t *testing.T, seed uint64) (opDict, *pdm.Machine) {
		m := pdm.NewMachine(pdm.Config{D: 20, B: 64})
		bd, err := NewBasic(m, BasicConfig{Capacity: 500, SatWords: 1, Seed: seed})
		if err != nil {
			t.Fatalf("NewBasic: %v", err)
		}
		return bd, m
	}},
	{"dynamic", func(t *testing.T, seed uint64) (opDict, *pdm.Machine) {
		m := pdm.NewMachine(pdm.Config{D: 40, B: 64})
		dd, err := NewDynamic(m, DynamicConfig{Capacity: 500, SatWords: 1, Seed: seed})
		if err != nil {
			t.Fatalf("NewDynamic: %v", err)
		}
		return dd, m
	}},
	{"oneprobe", func(t *testing.T, seed uint64) (opDict, *pdm.Machine) {
		m := pdm.NewMachine(pdm.Config{D: 48, B: 64})
		od, err := NewOneProbe(m, OneProbeConfig{Capacity: 300, SatWords: 1, Seed: seed})
		if err != nil {
			t.Fatalf("NewOneProbe: %v", err)
		}
		return od, m
	}},
}

// TestOpChargesSumToMachineTotals is the exactness property of token
// accounting: run a randomized mixed workload from 8 concurrent clients
// over each structure, every request carrying its own token, and the
// per-op charges must sum to exactly the machine's merged counters —
// nothing double-charged, nothing lost, no matter how the goroutines
// interleave. Run with -race; the schedule is part of the test.
func TestOpChargesSumToMachineTotals(t *testing.T) {
	const clients, perClient = 8, 30
	for _, s := range opStructures {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", s.name, seed), func(t *testing.T) {
				dict, m := s.build(t, seed)
				base := m.Stats()

				ops := make([][]*pdm.Op, clients)
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(seed)*1000 + int64(c)))
						lo := pdm.Word(c*1000 + 1) // private key range per client
						next := lo
						for i := 0; i < perClient; i++ {
							op := m.NewOp(c, 1)
							ops[c] = append(ops[c], op)
							switch p := rng.Float64(); {
							case p < 0.5:
								dict.LookupOp(op, lo+pdm.Word(rng.Intn(perClient)))
							case p < 0.85:
								if err := dict.InsertOp(op, next, []pdm.Word{pdm.Word(next) * 3}); err != nil {
									t.Errorf("client %d insert %d: %v", c, next, err)
									return
								}
								next++
							default:
								dict.DeleteOp(op, lo+pdm.Word(rng.Intn(perClient)))
							}
						}
					}(c)
				}
				wg.Wait()
				if t.Failed() {
					return
				}

				var steps, blocks, reads, writes int64
				for c := range ops {
					for _, op := range ops[c] {
						steps += op.Steps()
						blocks += op.Blocks()
						reads += op.Reads()
						writes += op.Writes()
					}
				}
				d := m.Stats().Sub(base)
				if steps != d.ParallelIOs {
					t.Errorf("Σ per-op steps = %d, machine parallel I/Os = %d", steps, d.ParallelIOs)
				}
				if reads != d.BlockReads {
					t.Errorf("Σ per-op reads = %d, machine block reads = %d", reads, d.BlockReads)
				}
				if writes != d.BlockWrites {
					t.Errorf("Σ per-op writes = %d, machine block writes = %d", writes, d.BlockWrites)
				}
				if blocks != d.BlockReads+d.BlockWrites {
					t.Errorf("Σ per-op blocks = %d, machine transfers = %d", blocks, d.BlockReads+d.BlockWrites)
				}
			})
		}
	}
}

// coreEventRecorder captures the raw event stream for offline folding.
type coreEventRecorder struct {
	mu     sync.Mutex
	events []pdm.Event
}

func (r *coreEventRecorder) Event(e pdm.Event) {
	cp := e
	cp.Addrs = append([]pdm.Addr(nil), e.Addrs...)
	cp.Ops = append([]uint64(nil), e.Ops...)
	r.mu.Lock()
	r.events = append(r.events, cp)
	r.mu.Unlock()
}

// opConsumers hooks the three per-operation consumers onto a machine:
// the online OpAccountant, the Collector's per-tag aggregates, and a
// recorder whose stream FoldSpans folds offline.
type opConsumers struct {
	acct *obs.OpAccountant
	coll *obs.Collector
	rec  *coreEventRecorder
}

func hookOpConsumers(m *pdm.Machine) *opConsumers {
	h := &opConsumers{acct: obs.NewOpAccountant(), coll: obs.NewCollector(), rec: &coreEventRecorder{}}
	h.acct.RecorderSize = 4096 // retain every op's record
	m.SetHook(obs.Tee(h.acct, h.coll, h.rec))
	return h
}

// agree checks that the consumers saw the same n operations: the
// accountant's records equal FoldSpans' token-carrying root records
// field for field, and the Collector's per-tag aggregates equal the
// accountant's.
func (h *opConsumers) agree(t *testing.T, n int) {
	t.Helper()
	folded := map[uint64]obs.OpRecord{} // op ID -> offline root record
	for _, r := range obs.FoldSpans(h.rec.events, obs.CostModel{}) {
		if r.Parent == 0 && r.Op != 0 {
			folded[r.Op] = r
		}
	}
	records, total := h.acct.Recorded()
	if total != int64(n) || len(records) != n {
		t.Fatalf("accountant retained %d/%d records, want %d", len(records), total, n)
	}
	if len(folded) != n {
		t.Fatalf("FoldSpans produced %d op roots, want %d", len(folded), n)
	}
	for _, fr := range records {
		want, ok := folded[fr.Op]
		if !ok {
			t.Fatalf("accountant op %d missing from FoldSpans output", fr.Op)
		}
		if fr.OpRecord != want {
			t.Errorf("op %d diverges:\n  online  %+v\n  offline %+v", fr.Op, fr.OpRecord, want)
		}
	}
	tags, ops := h.acct.Tags(), h.coll.Ops()
	if len(tags) != len(ops) {
		t.Errorf("accountant tags %d, collector tags %d", len(tags), len(ops))
	}
	for tag, a := range tags {
		c := ops[tag]
		if c == nil {
			t.Errorf("tag %q missing from Collector.Ops", tag)
			continue
		}
		if c.Count != a.Count || c.StepSum != a.StepSum || c.BlockSum != a.BlockSum ||
			c.FaultSum != a.FaultSum || c.LatencySumNanos != a.LatencySumNanos ||
			c.Steps.Quantile(0.99) != a.Steps.Quantile(0.99) {
			t.Errorf("tag %q: collector {count %d steps %d blocks %d p99 %d}, accountant {count %d steps %d blocks %d p99 %d}",
				tag, c.Count, c.StepSum, c.BlockSum, c.Steps.Quantile(0.99),
				a.Count, a.StepSum, a.BlockSum, a.Steps.Quantile(0.99))
		}
	}
}

// TestOpAccountantMatchesFoldSpans pins every per-operation consumer
// to one record per op: the online OpAccountant, the offline FoldSpans
// reconstruction and the Collector's per-tag aggregates all charge an
// op the steps of its own events. Serially that also equals the window
// of the machine's step counter; under concurrency the window holds
// other clients' steps too, and the consumers must still agree, op by
// op — in plain concurrent ops and in shared rounds, which charge every
// owner in full.
func TestOpAccountantMatchesFoldSpans(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		m := pdm.NewMachine(pdm.Config{D: 20, B: 64})
		bd, err := NewBasic(m, BasicConfig{Capacity: 400, SatWords: 1, Seed: 7})
		if err != nil {
			t.Fatalf("NewBasic: %v", err)
		}
		h := hookOpConsumers(m)
		rng := rand.New(rand.NewSource(99))
		const n = 200
		for i := 0; i < n; i++ {
			op := m.NewOp(0, 1)
			key := pdm.Word(rng.Intn(300) + 1)
			switch p := rng.Float64(); {
			case p < 0.5:
				bd.LookupOp(op, key)
			case p < 0.85:
				if err := bd.InsertOp(op, key, []pdm.Word{pdm.Word(key) * 3}); err != nil {
					t.Fatalf("insert %d: %v", key, err)
				}
			default:
				bd.DeleteOp(op, key)
			}
		}
		h.agree(t, n)
		// Serially each op's own charges are its step-counter window.
		records, _ := h.acct.Recorded()
		for _, fr := range records {
			if fr.Steps != fr.EndStep-fr.BeginStep {
				t.Errorf("op %d: steps %d, window [%d, %d]", fr.Op, fr.Steps, fr.BeginStep, fr.EndStep)
			}
		}
	})

	const clients, perClient, keySpace = 4, 150, 1000
	newDynamic := func(t *testing.T) (*DynamicDict, *pdm.Machine) {
		m := pdm.NewMachine(pdm.Config{D: 40, B: 64})
		dd, err := NewDynamic(m, DynamicConfig{Capacity: clients * keySpace, SatWords: 1, Seed: 5})
		if err != nil {
			t.Fatalf("NewDynamic: %v", err)
		}
		return dd, m
	}
	// run starts the clients together and waits for them.
	run := func(client func(c int)) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client(c)
			}(c)
		}
		wg.Wait()
	}

	t.Run("concurrent", func(t *testing.T) {
		dd, m := newDynamic(t)
		h := hookOpConsumers(m)
		run(func(c int) {
			rng := rand.New(rand.NewSource(int64(c) + 1))
			lo := pdm.Word(c*keySpace + 1) // private key range per client
			for i := 0; i < perClient; i++ {
				op := m.NewOp(c, 1)
				if key := lo + pdm.Word(rng.Intn(perClient)); rng.Intn(3) == 0 {
					if err := dd.InsertOp(op, key, []pdm.Word{pdm.Word(key) * 3}); err != nil {
						t.Errorf("client %d insert %d: %v", c, key, err)
						return
					}
				} else {
					dd.LookupOp(op, key)
				}
			}
		})
		if !t.Failed() {
			h.agree(t, clients*perClient)
		}
	})

	t.Run("shared", func(t *testing.T) {
		dd, m := newDynamic(t)
		for k := 1; k <= clients*keySpace/2; k += 7 {
			if err := dd.Insert(pdm.Word(k), []pdm.Word{pdm.Word(k)}); err != nil {
				t.Fatalf("preload %d: %v", k, err)
			}
		}
		h := hookOpConsumers(m)
		const rounds, width = 30, 4
		run(func(c int) {
			rng := rand.New(rand.NewSource(int64(c) + 11))
			shared := make([]*pdm.Op, width)
			keys := make([]pdm.Word, width)
			sats, oks := make([][]pdm.Word, width), make([]bool, width)
			for r := 0; r < rounds; r++ {
				for i := range shared {
					shared[i] = m.NewOp(c, 1)
					keys[i] = pdm.Word(rng.Intn(clients*keySpace) + 1)
				}
				dd.LookupBatchInto(nil, shared, keys, sats, oks)
			}
		})
		h.agree(t, clients*rounds*width)
	})
}
