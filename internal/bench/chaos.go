package bench

import (
	"fmt"
	"math/rand"
	"strconv"

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

// The soak's fixed shape: an 8-disk, 64-word-block machine holding 512
// keys at replication degree 2 (the minimum: the soak deliberately
// destroys disks), a damage round every 400 steps with every third round
// a bit flip, and a baseline drizzle of 5 % transient reads and 2 %
// 2-step stalls on top of the scheduled outages.
const (
	chaosDisks         = 8
	chaosBlockWords    = 64
	chaosReplicas      = 2
	chaosKeys          = 512
	chaosGap           = 400
	chaosCorruptEvery  = 3
	chaosTransientProb = 0.05
	chaosStallProb     = 0.02
	chaosStallSteps    = 2
	// chaosMaxRounds only guards against a wedged run of the driver loop.
	chaosMaxRounds = 100000
)

// ChaosConfig shapes one chaos soak run (pdmbench -chaos).
type ChaosConfig struct {
	// Seed drives the fault plan, the schedule generator and the order
	// the driver steps its actors in (default 1).
	Seed uint64 `json:"seed"`
	// Clients is the number of lookup clients stepped each round
	// (default 8).
	Clients int `json:"clients"`
	// Rounds is the number of damage rounds in the generated schedule
	// (fault.GenerateSchedule; default 6).
	Rounds int `json:"rounds"`
}

func (c *ChaosConfig) normalize() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Rounds <= 0 {
		c.Rounds = 6
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
// generated chaos schedule to the machine's step clock, and soaks it
// with one stepped driver: each round, in an order drawn from a
// cfg.Seed-seeded generator, every client does one degraded lookup, a
// patrol scrub sweeps one chunk for silent damage, and the
// heal.Supervisor runs until it has no work left — unaided. Everything
// runs on the calling goroutine, so the result (and any trace the suite
// hook records) is a function of cfg alone. It returns a non-nil error
// if any soak invariant breaks: a key unavailable or wrong mid-soak, the
// schedule or supervisor failing to converge within chaosMaxRounds,
// machine totals not exactly attributed to client/patrol/repair tokens,
// or the post-soak scrub finding damage. CI runs it per seed and checks
// the exit code.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg.normalize()
	res := ChaosResult{Config: cfg}

	m := newMachine(pdm.Config{D: chaosDisks, B: chaosBlockWords})
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
		Capacity:  chaosKeys,
		SatWords:  3,
		K:         chaosReplicas,
		Replicate: true,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return res, fmt.Errorf("chaos: build dictionary: %w", err)
	}
	key := func(i int) pdm.Word { return pdm.Word(i)*2654435761 + 1 }
	for i := 0; i < chaosKeys; i++ {
		if err := bd.Insert(key(i), []pdm.Word{pdm.Word(i), key(i), key(i) ^ 0xabc}); err != nil {
			return res, fmt.Errorf("chaos: preload key %d: %w", i, err)
		}
	}
	bd.SetRetryPolicy(pdm.RetryPolicy{MaxRetries: 6, BackoffBase: 2, BackoffFactor: 2, Hedge: true})

	plan := fault.NewPlan(cfg.Seed)
	plan.SetTransient(chaosTransientProb)
	plan.SetStall(chaosStallProb, chaosStallSteps)
	schedule := fault.NewSchedule(plan, fault.GenerateSchedule(cfg.Seed, fault.ChaosProfile{
		Disks:        chaosDisks,
		Blocks:       bd.BlocksPerDisk(),
		Rounds:       cfg.Rounds,
		Gap:          chaosGap,
		CorruptEvery: chaosCorruptEvery,
	}))
	schedule.BindMachine(m)
	res.Schedule = schedule.Events()

	base := m.Stats()
	m.SetFaultInjector(schedule)

	sup := heal.New(m, bd, heal.Config{ChunkRows: 4, MaxAttempts: 8})

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

	// Actors 0..Clients-1 are the lookup clients; the last two are the
	// patrol scrub and the supervisor.
	patrol, supervisor := cfg.Clients, cfg.Clients+1
	order := rand.New(rand.NewSource(int64(cfg.Seed)))
	clientOps := make([][]*pdm.Op, cfg.Clients)
	var patrolOps []*pdm.Op
	row := 0
	var fail string
	var timedOut bool
soak:
	for round := 0; !drained(); round++ {
		if round == chaosMaxRounds {
			timedOut = true
			break
		}
		for _, actor := range order.Perm(cfg.Clients + 2) {
			switch actor {
			case patrol:
				// The detector for scripted corruption on blocks the key
				// workload never reads, charged to its own client ID.
				op := m.NewOp(PatrolClient, 1)
				patrolOps = append(patrolOps, op)
				wrapped := false
				for disk := 0; disk < chaosDisks; disk++ {
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
			case supervisor:
				for sup.Tick() {
				}
			default:
				c := actor
				i := (c + 5*len(clientOps[c])) % chaosKeys
				op := m.NewOp(c, 1)
				clientOps[c] = append(clientOps[c], op)
				res.Lookups++
				if sat, ok, err := bd.LookupTryOp(op, key(i)); err != nil || !ok || sat[1] != key(i) {
					fail = fmt.Sprintf("client %d key %d: ok=%v err=%v", c, i, ok, err)
					break soak
				}
			}
		}
	}
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

	if fail != "" {
		return res, fmt.Errorf("chaos: lookup failed mid-soak: %s", fail)
	}
	if timedOut {
		return res, fmt.Errorf("chaos: did not converge within %d rounds: applied %d/%d events, health %+v, supervisor idle=%v",
			chaosMaxRounds, res.EventsApplied, len(res.Schedule), m.Health().Unhealthy(), sup.Idle())
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
	for i := 0; i < chaosKeys; i++ {
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
		Title: fmt.Sprintf("Chaos soak (seed %d): %d events over %d disks, %d clients", res.Config.Seed, len(res.Schedule), chaosDisks, res.Config.Clients),
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
