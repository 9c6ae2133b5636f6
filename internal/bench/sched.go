package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"pdmdict/internal/bucket"
	"pdmdict/internal/core"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
	"pdmdict/internal/sched"
)

// Scheduled-lookup mode (`pdmbench -parallel LADDER`): the same
// uniform multi-client lookup workload run twice over identical §4.1
// dictionaries — once with every client probing the machine directly
// (each lookup is its own parallel-I/O round), once through the
// group-commit scheduler (sched.Scheduler in deterministic mode,
// MaxBatch = client count), which coalesces the window's lookups into
// one deduplicated shared round. The figure of merit is modeled
// parallel-I/O steps per operation: a shared round costs the deepest
// per-disk queue of DISTINCT blocks, so k concurrent probes that
// spread over the disks (or collide on the same block) cost far less
// than k sequential rounds. The dictionary is kept small relative to
// the disk count on purpose: coalescing pays exactly when concurrent
// probes land in a bounded block population, which is the serving
// regime the scheduler targets (hot working set, many clients).

// SchedBenchConfig parameterizes one scheduled-vs-direct comparison.
type SchedBenchConfig struct {
	// OpsPerClient is each client's lookup budget. Defaults to 200.
	OpsPerClient int
	// Keys is the number of records preloaded before either phase.
	// Defaults to 256 — a hot working set spanning a handful of blocks
	// per disk, so window-level dedup can cap the shared round's cost.
	Keys int
	// Seed derives the layout and every client's private key sequence;
	// both phases replay identical sequences.
	Seed uint64
	// D and B are the machine shape; default 20 disks × 64-word blocks.
	D, B int
}

func (c *SchedBenchConfig) normalize() {
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 200
	}
	if c.Keys == 0 {
		c.Keys = 256
	}
	if c.D == 0 {
		c.D = 20
	}
	if c.B == 0 {
		c.B = 64
	}
}

// SchedResult is one client-count row of the comparison.
type SchedResult struct {
	Clients int   `json:"clients"`
	Ops     int64 `json:"ops"`

	// Modeled parallel-I/O steps, direct vs scheduled, and their
	// per-operation rates. Improvement is direct/scheduled (>1 means
	// the scheduler reduced modeled I/O).
	DirectSteps      int64   `json:"direct_steps"`
	DirectStepsPerOp float64 `json:"direct_steps_per_op"`
	SchedSteps       int64   `json:"sched_steps"`
	SchedStepsPerOp  float64 `json:"sched_steps_per_op"`
	Improvement      float64 `json:"improvement"`

	// Scheduler shape: shared rounds issued, rounds saved by merging,
	// and the mean coalescing factor (lookups per shared round).
	Rounds       int64   `json:"rounds"`
	RoundsSaved  int64   `json:"rounds_saved"`
	RoundsShared float64 `json:"rounds_shared"`

	// Exact per-op accounting over the scheduled phase: completed
	// token-carrying ops (must equal Ops) and their mean charge — each
	// participant pays the full merged round once.
	OpsAccounted int64   `json:"ops_accounted"`
	OpStepsMean  float64 `json:"op_steps_mean"`
}

// schedBenchDict builds one preloaded dictionary for a phase. Both
// phases call it with the same config, so layouts are identical.
func schedBenchDict(cfg SchedBenchConfig, hook pdm.Hook) (*pdm.Machine, *core.BasicDict, error) {
	m := newMachine(pdm.Config{D: cfg.D, B: cfg.B})
	if hook != nil {
		m.SetHook(hook)
	}
	dict, err := core.NewBasic(m, core.BasicConfig{
		Capacity: cfg.Keys + 8,
		SatWords: 1,
		Universe: 1 << 62,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	recs := make([]bucket.Record, cfg.Keys)
	for i := range recs {
		k := pdm.Word(2*i + 1)
		recs[i] = bucket.Record{Key: k, Sat: []pdm.Word{k * 13}}
	}
	if err := dict.BulkLoad(recs, dict.BlocksPerDisk(), 8); err != nil {
		return nil, nil, err
	}
	return m, dict, nil
}

// schedBenchKey draws client c's i-th lookup key — the same function
// prices both phases, so the workloads are identical streams.
func schedBenchKeys(cfg SchedBenchConfig, c int) *rand.Rand {
	return rand.New(rand.NewSource(int64(cfg.Seed) + int64(c)*7919 + 1))
}

// RunSchedBench runs the comparison at one client count.
func RunSchedBench(cfg SchedBenchConfig, clients int) (SchedResult, error) {
	var res SchedResult
	cfg.normalize()
	if clients <= 0 {
		return res, fmt.Errorf("bench: clients = %d, must be positive", clients)
	}
	res.Clients = clients
	res.Ops = int64(clients * cfg.OpsPerClient)

	// Phase 1 — direct: every client probes the dictionary itself, one
	// parallel-I/O round per lookup.
	dm, direct, err := schedBenchDict(cfg, nil)
	if err != nil {
		return res, err
	}
	base := dm.Stats()
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := schedBenchKeys(cfg, c)
			for i := 0; i < cfg.OpsPerClient; i++ {
				k := pdm.Word(2*rng.Intn(cfg.Keys) + 1)
				if sat, ok := direct.LookupOp(dm.NewOp(c, 1), k); !ok || sat[0] != k*13 {
					errs <- fmt.Errorf("bench: direct client %d key %d: ok=%v sat=%v", c, k, ok, sat)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return res, err
	}
	res.DirectSteps = dm.Stats().ParallelIOs - base.ParallelIOs
	res.DirectStepsPerOp = float64(res.DirectSteps) / float64(res.Ops)

	// Phase 2 — scheduled: an identical fresh dictionary behind the
	// group-commit scheduler, deterministic mode, MaxBatch = clients.
	// Clients self-synchronize (each blocks on its in-flight lookup),
	// so every admission window coalesces one op per client.
	acct := obs.NewOpAccountant()
	acct.SampleEvery = 64
	sm, backing, err := schedBenchDict(cfg, obs.Tee(suiteHook, acct))
	if err != nil {
		return res, err
	}
	s := sched.New(backing, sched.Config{MaxBatch: clients, Steps: sm.StepCount})
	sbase := sm.Stats()
	errs = make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := schedBenchKeys(cfg, c)
			for i := 0; i < cfg.OpsPerClient; i++ {
				k := pdm.Word(2*rng.Intn(cfg.Keys) + 1)
				sat, ok, err := s.LookupOp(s.MintOp(c, 1), k)
				if err != nil {
					errs <- fmt.Errorf("bench: scheduled client %d key %d: %w", c, k, err)
					return
				}
				if !ok || sat[0] != k*13 {
					errs <- fmt.Errorf("bench: scheduled client %d key %d: ok=%v sat=%v", c, k, ok, sat)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return res, err
	}
	if err := s.Close(); err != nil {
		return res, err
	}
	res.SchedSteps = sm.Stats().ParallelIOs - sbase.ParallelIOs
	res.SchedStepsPerOp = float64(res.SchedSteps) / float64(res.Ops)
	if res.SchedSteps > 0 {
		res.Improvement = float64(res.DirectSteps) / float64(res.SchedSteps)
	}

	snap := s.Snapshot()
	res.Rounds = snap.Rounds
	res.RoundsSaved = snap.RoundsSaved
	if snap.Rounds > 0 {
		res.RoundsShared = float64(snap.Lookups) / float64(snap.Rounds)
	}
	ops, steps, _, _ := acct.Totals()
	res.OpsAccounted = ops
	if ops > 0 {
		res.OpStepsMean = float64(steps) / float64(ops)
	}
	return res, nil
}

// SchedTable runs the comparison once per client count and renders the
// ladder. The success metric is sched steps/op strictly below direct
// steps/op once several clients share each admission window.
func SchedTable(cfg SchedBenchConfig, clientCounts []int) (Table, []SchedResult, error) {
	cfg.normalize()
	t := Table{
		ID: "T2-sched",
		Title: fmt.Sprintf("group-commit scheduler: §4.1 dictionary, %d hot keys, %d lookups/client, direct vs coalesced",
			cfg.Keys, cfg.OpsPerClient),
		Columns: []string{"clients", "ops", "direct steps/op", "sched steps/op", "improvement",
			"rounds", "rounds saved", "coalesce", "ops accounted"},
	}
	var results []SchedResult
	for _, n := range clientCounts {
		r, err := RunSchedBench(cfg, n)
		if err != nil {
			return t, nil, err
		}
		results = append(results, r)
		t.AddRow(r.Clients, r.Ops,
			fmt.Sprintf("%.3f", r.DirectStepsPerOp),
			fmt.Sprintf("%.3f", r.SchedStepsPerOp),
			fmt.Sprintf("%.2fx", r.Improvement),
			r.Rounds, r.RoundsSaved,
			fmt.Sprintf("%.1f", r.RoundsShared),
			r.OpsAccounted)
	}
	t.Notes = append(t.Notes,
		"both phases replay identical per-client key streams over identically-built dictionaries; only the round structure differs",
		"a shared round costs the deepest per-disk queue of distinct blocks, so coalescing wins exactly what dedup and disk-spread save",
		"ops accounted comes from token attribution (obs.OpAccountant): every participant in a merged round is charged that round once")
	return t, results, nil
}
