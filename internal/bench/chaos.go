package bench

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pdmdict/internal/core"
	"pdmdict/internal/fault"
	"pdmdict/internal/heal"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// PatrolClient is the client ID the chaos harness charges its patrol
// scrub to — distinct from real clients and from heal.RepairClient, so
// detection cost and repair cost stay separable in the op accounting.
const PatrolClient = -2

// ChaosConfig shapes one chaos soak run (pdmbench -chaos).
type ChaosConfig struct {
	// Disks and BlockWords shape the machine (defaults 8 and 64).
	Disks      int `json:"disks"`
	BlockWords int `json:"block_words"`
	// Replicas is the replication degree K (default 2, minimum 2: the
	// soak deliberately destroys disks).
	Replicas int `json:"replicas"`
	// Keys is how many keys are preloaded and then hammered (default 512).
	Keys int `json:"keys"`
	// Clients is the number of concurrent lookup goroutines (default 8).
	Clients int `json:"clients"`
	// Rounds, Gap, and CorruptEvery shape the generated damage rotation
	// (fault.GenerateSchedule); defaults 6 rounds, gap 400, every 3rd
	// round a bit flip.
	Rounds       int   `json:"rounds"`
	Gap          int64 `json:"gap"`
	CorruptEvery int   `json:"corrupt_every"`
	// Seed drives the fault plan and the schedule generator (default 1).
	Seed uint64 `json:"seed"`
	// TransientProb and StallProb/StallSteps set the baseline drizzle on
	// top of the scheduled outages (defaults 0.05 and 0.02/2).
	TransientProb float64 `json:"transient_prob"`
	StallProb     float64 `json:"stall_prob"`
	StallSteps    int     `json:"stall_steps"`
	// Timeout bounds the wall-clock wait for the schedule to drain and
	// the supervisor to converge (default 60s). Wall time, not modeled
	// time: it only guards against a wedged run.
	Timeout time.Duration `json:"-"`
}

func (c *ChaosConfig) normalize() {
	if c.Disks <= 0 {
		c.Disks = 8
	}
	if c.BlockWords <= 0 {
		c.BlockWords = 64
	}
	if c.Replicas < 2 {
		c.Replicas = 2
	}
	if c.Keys <= 0 {
		c.Keys = 512
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Rounds <= 0 {
		c.Rounds = 6
	}
	if c.Gap <= 0 {
		c.Gap = 400
	}
	if c.CorruptEvery == 0 {
		c.CorruptEvery = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TransientProb == 0 {
		c.TransientProb = 0.05
	}
	if c.StallProb == 0 {
		c.StallProb = 0.02
	}
	if c.StallSteps <= 0 {
		c.StallSteps = 2
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
}

// ChaosResult is one chaos soak's outcome: what the schedule did, what
// it cost, and where every parallel-I/O step went. Exact is the headline
// invariant — machine totals equal client + patrol + repair charges,
// nothing unattributed.
type ChaosResult struct {
	Config         ChaosConfig        `json:"config"`
	EventsApplied  int                `json:"events_applied"`
	Schedule       []fault.ChaosEvent `json:"schedule"`
	Lookups        int64              `json:"lookups"`
	WallNanos      int64              `json:"wall_ns"`
	ParallelIOs    int64              `json:"parallel_ios"`
	BlockReads     int64              `json:"block_reads"`
	BlockWrites    int64              `json:"block_writes"`
	ClientSteps    int64              `json:"client_steps"`
	PatrolSteps    int64              `json:"patrol_steps"`
	RepairSteps    int64              `json:"repair_steps"`
	RepairEpisodes int                `json:"repair_episodes"`
	Exact          bool               `json:"exact_attribution"`
	Retries        int64              `json:"retry_batches"`
	Hedges         int64              `json:"hedged_reads"`
	BackoffSteps   int64              `json:"backoff_steps"`
	RepairChunks   int64              `json:"repair_chunks"`
	RepairRows     int64              `json:"repair_rows"`
	ScrubClean     bool               `json:"scrub_clean"`
	// AlertTransitions and AlertCycles report the watchdog that rode the
	// soak: total alert state-machine transitions, and complete
	// fire → resolve cycles per rule. The soak requires at least one
	// cycle each from the balance auditor and the degraded-capacity rule
	// — the watchdog must both catch every scripted outage and stand down
	// once healing converges.
	AlertTransitions int64                 `json:"alert_transitions"`
	AlertCycles      map[string]int64      `json:"alert_cycles"`
	Clients          map[string]*obs.OpAgg `json:"per_client,omitempty"`
	Tags             map[string]*obs.OpAgg `json:"per_tag,omitempty"`
}

// clientLabel names an op-accounting client row for the JSON report.
func clientLabel(id int) string {
	switch id {
	case heal.RepairClient:
		return "repair"
	case PatrolClient:
		return "patrol"
	default:
		return "client_" + strconv.Itoa(id)
	}
}

// RunChaos builds a replicated dictionary on a fresh machine, binds a
// generated chaos schedule to the machine's step clock, and soaks it:
// concurrent clients hammer degraded lookups, a patrol scrub sweeps for
// silent damage, and the heal.Supervisor repairs in the background —
// unaided. It returns a non-nil error if any soak invariant breaks:
// a key unavailable or wrong mid-soak, the schedule or supervisor
// failing to converge before cfg.Timeout, machine totals not exactly
// attributed to client/patrol/repair tokens, or the post-soak scrub
// finding damage. CI runs it per seed and checks the exit code.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg.normalize()
	res := ChaosResult{Config: cfg}

	m := newMachine(pdm.Config{D: cfg.Disks, B: cfg.BlockWords})
	// The baseline drizzle must not churn disks through Suspect, or the
	// schedule's AwaitHealthy gates would never open; promotion needs a
	// burst no drizzle can produce. Hedging still triggers off stalls.
	m.SetSuspectThresholds(500, 64)
	acct := obs.NewOpAccountant()
	acct.SampleEvery = 64
	// The watchdog wraps the sink chain so it sees every event (health
	// annotations included) and its alert events reach the suite hook.
	var sinks pdm.Hook = acct
	if suiteHook != nil {
		sinks = obs.Tee(suiteHook, acct)
	}
	mon := obs.NewMonitor(sinks, obs.DefaultRules()...)
	m.SetHook(mon)

	bd, err := core.NewBasic(m, core.BasicConfig{
		Capacity:  cfg.Keys,
		SatWords:  3,
		K:         cfg.Replicas,
		Replicate: true,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return res, fmt.Errorf("chaos: build dictionary: %w", err)
	}
	key := func(i int) pdm.Word { return pdm.Word(i)*2654435761 + 1 }
	for i := 0; i < cfg.Keys; i++ {
		if err := bd.Insert(key(i), []pdm.Word{pdm.Word(i), key(i), key(i) ^ 0xabc}); err != nil {
			return res, fmt.Errorf("chaos: preload key %d: %w", i, err)
		}
	}
	bd.SetRetryPolicy(pdm.RetryPolicy{MaxRetries: 6, BackoffBase: 2, BackoffFactor: 2, Hedge: true})

	plan := fault.NewPlan(cfg.Seed)
	plan.SetTransient(cfg.TransientProb)
	plan.SetStall(cfg.StallProb, cfg.StallSteps)
	schedule := fault.NewSchedule(plan, fault.GenerateSchedule(cfg.Seed, fault.ChaosProfile{
		Disks:        cfg.Disks,
		Blocks:       bd.BlocksPerDisk(),
		Rounds:       cfg.Rounds,
		Gap:          cfg.Gap,
		CorruptEvery: cfg.CorruptEvery,
	}))
	schedule.BindMachine(m)
	res.Schedule = schedule.Events()

	base := m.Stats()
	m.SetFaultInjector(schedule)

	sup := heal.New(m, bd, heal.Config{ChunkRows: 4, MaxAttempts: 8})
	// A firing degraded-capacity alert nudges the supervisor directly —
	// the alert edge and the health notification race benignly (Wake is a
	// non-blocking send on the same channel).
	mon.SetListener(func(ts []obs.AlertTransition) {
		for _, t := range ts {
			if t.Rule == "degraded_capacity" && t.To == obs.AlertFiring {
				sup.Wake()
			}
		}
	})
	sup.Start()

	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var lookups atomic.Int64
	var failures atomic.Int64
	var firstFail atomic.Value // string

	// Patrol scrub: the detector for scripted corruption on blocks the
	// key workload never reads, charged to its own client ID.
	var patrolOps []*pdm.Op
	wg.Add(1)
	go func() {
		defer wg.Done()
		row := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			op := m.NewOp(PatrolClient, 1)
			patrolOps = append(patrolOps, op)
			wrapped := false
			for disk := 0; disk < cfg.Disks; disk++ {
				if m.DiskState(disk) != pdm.Healthy {
					continue // outages are the supervisor's problem
				}
				if _, _, done := bd.ScrubRange(op, disk, row, 2); done {
					wrapped = true
				}
			}
			row += 2
			if wrapped || row > 1<<16 {
				row = 0
			}
		}
	}()

	clientOps := make([][]*pdm.Op, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := c
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := m.NewOp(c, 1)
				clientOps[c] = append(clientOps[c], op)
				sat, ok, err := bd.LookupTryOp(op, key(i%cfg.Keys))
				lookups.Add(1)
				if err != nil || !ok || sat[1] != key(i%cfg.Keys) {
					failures.Add(1)
					firstFail.CompareAndSwap(nil, fmt.Sprintf("client %d key %d: ok=%v err=%v", c, i%cfg.Keys, ok, err))
					return
				}
				i += 5
			}
		}(c)
	}

	// Drained means every event fired, every disk back to Healthy, the
	// supervisor idle, every scripted flip verifiably rewritten (a
	// final-round flip must not hide behind a healthy-looking array), and
	// the watchdog's outage rules stood down — the soak keeps traffic
	// flowing until the balance and degraded-capacity alerts have walked
	// their fire → resolve cycle, so the timeline always closes.
	drained := func() bool {
		if !(schedule.Done() && m.AllDisksHealthy() && sup.Idle()) {
			return false
		}
		for _, e := range res.Schedule {
			if e.Action == fault.ChaosCorrupt && !m.BlockClean(e.Addr) {
				return false
			}
		}
		for _, r := range mon.Snapshot().Rules {
			if (r.Rule == "balance" || r.Rule == "degraded_capacity") && r.Firing+r.Pending > 0 {
				return false
			}
		}
		return true
	}
	var timedOut bool
	for !drained() {
		if failures.Load() > 0 {
			break
		}
		if time.Since(start) > cfg.Timeout {
			timedOut = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	sup.Stop()
	res.WallNanos = time.Since(start).Nanoseconds()
	res.Lookups = lookups.Load()
	res.EventsApplied = schedule.Applied()

	// The attribution window closes here, before any unattributed
	// verification I/O below.
	delta := m.Stats().Sub(base)
	res.ParallelIOs = delta.ParallelIOs
	res.BlockReads = delta.BlockReads
	res.BlockWrites = delta.BlockWrites
	sum := func(ops []*pdm.Op) (s int64) {
		for _, op := range ops {
			s += op.Steps()
		}
		return s
	}
	for _, ops := range clientOps {
		res.ClientSteps += sum(ops)
	}
	res.PatrolSteps = sum(patrolOps)
	repairOps := sup.Ops()
	res.RepairSteps = sum(repairOps)
	res.RepairEpisodes = len(repairOps)
	res.Exact = res.ClientSteps+res.PatrolSteps+res.RepairSteps == res.ParallelIOs

	res.AlertTransitions = mon.Snapshot().Transitions
	res.AlertCycles = mon.Cycles()

	rep := m.Health()
	res.Retries = rep.Retries
	res.Hedges = rep.Hedges
	res.BackoffSteps = rep.BackoffSteps
	res.RepairChunks = rep.RepairChunks
	res.RepairRows = rep.RepairRows

	res.Clients = make(map[string]*obs.OpAgg)
	for id, agg := range acct.Clients() {
		res.Clients[clientLabel(id)] = agg
	}
	res.Tags = acct.Tags()

	// Post-soak verification runs fault-free and outside the attribution
	// window: the soak is over, this is the autopsy.
	m.SetFaultInjector(nil)
	res.ScrubClean = len(bd.Scrub()) == 0

	if msg, _ := firstFail.Load().(string); msg != "" {
		return res, fmt.Errorf("chaos: %d lookup failures mid-soak, first: %s", failures.Load(), msg)
	}
	if timedOut {
		return res, fmt.Errorf("chaos: did not converge within %v: applied %d/%d events, health %+v, supervisor idle=%v",
			cfg.Timeout, res.EventsApplied, len(res.Schedule), m.Health().Unhealthy(), sup.Idle())
	}
	if !res.Exact {
		return res, fmt.Errorf("chaos: unattributed I/O: clients %d + patrol %d + repair %d != machine %d",
			res.ClientSteps, res.PatrolSteps, res.RepairSteps, res.ParallelIOs)
	}
	if !res.ScrubClean {
		return res, fmt.Errorf("chaos: post-soak scrub found damage")
	}
	if res.RepairEpisodes == 0 || res.RepairChunks == 0 {
		return res, fmt.Errorf("chaos: schedule drained but no repair episodes ran (episodes=%d chunks=%d)",
			res.RepairEpisodes, res.RepairChunks)
	}
	if res.AlertCycles["balance"] == 0 || res.AlertCycles["degraded_capacity"] == 0 {
		return res, fmt.Errorf("chaos: watchdog missed the soak: fire→resolve cycles balance=%d degraded_capacity=%d (want ≥1 each)",
			res.AlertCycles["balance"], res.AlertCycles["degraded_capacity"])
	}
	for i := 0; i < cfg.Keys; i++ {
		sat, ok, err := bd.LookupTry(key(i))
		if err != nil || !ok || sat[1] != key(i) {
			return res, fmt.Errorf("chaos: key %d wrong after soak: ok=%v err=%v", i, ok, err)
		}
	}
	return res, nil
}

// ChaosTable renders a chaos result as a report table for the text
// formats; the JSON report carries the full ChaosResult.
func ChaosTable(res ChaosResult) *Table {
	tb := &Table{
		ID:    "chaos",
		Title: fmt.Sprintf("Chaos soak (seed %d): %d events over %d disks, %d clients", res.Config.Seed, len(res.Schedule), res.Config.Disks, res.Config.Clients),
		Columns: []string{
			"lookups", "events", "repair episodes", "repair chunks",
			"retries", "hedges", "backoff steps", "client steps", "patrol steps", "repair steps", "machine steps", "exact", "scrub clean", "alert cycles",
		},
		Notes: []string{
			"exact = machine parallel-I/O total equals client+patrol+repair op charges; recovery cost is attributed, never smeared.",
			"alert cycles = complete fire→resolve walks of the watchdog's balance and degraded-capacity rules (each must be ≥1).",
		},
	}
	tb.AddRow(
		res.Lookups, res.EventsApplied, res.RepairEpisodes, res.RepairChunks,
		res.Retries, res.Hedges, res.BackoffSteps, res.ClientSteps, res.PatrolSteps, res.RepairSteps, res.ParallelIOs, res.Exact, res.ScrubClean,
		fmt.Sprintf("bal=%d degr=%d", res.AlertCycles["balance"], res.AlertCycles["degraded_capacity"]),
	)
	return tb
}
