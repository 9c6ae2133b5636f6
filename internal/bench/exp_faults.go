package bench

import (
	"fmt"

	"pdmdict/internal/core"
	"pdmdict/internal/fault"
	"pdmdict/internal/pdm"
	"pdmdict/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E14-faults",
		Title: "robustness: degraded lookups under failed disks, transient-error retries, repair cost",
		Run:   runFaults,
	})
}

// runFaults measures what fault tolerance costs in the model's own
// currency. A k-replicated Section 4.1 dictionary keeps every lookup at
// one parallel I/O while up to k−1 disks are fail-stopped — the checked
// read path touches the same d buckets, so degradation shows up as lost
// answers (none, by construction) rather than extra I/Os. Transient
// errors inflate cost only when a retry is needed: each retry batch is
// an accounted parallel I/O, but a lookup re-issues a failed block only
// while its key is unsettled, and any one replica settles a stored key.
// Repairing a replaced (wiped) disk from the surviving replicas is
// a scan: O(v/d) bucket reads across d−1 disks plus v/d bucket writes.
func runFaults() []Table {
	const (
		d, b = 12, 64
		n    = 1500
		seed = 303
	)
	lookups := Table{
		ID:    "E14-faults",
		Title: fmt.Sprintf("k-replicated §4.1 dictionary, d=%d, B=%d, n=%d: degraded lookups", d, b, n),
		Columns: []string{"replicas k", "failed disks", "lookups", "wrong/lost",
			"avg I/Os per lookup", "inflation vs healthy"},
	}
	transient := Table{
		ID:    "E14-faults-transient",
		Title: "same dictionary (k=2): transient read errors, retried up to 3 times",
		Columns: []string{"transient p", "lookups", "inconclusive",
			"avg I/Os per lookup", "inflation vs healthy"},
	}
	repairs := Table{
		ID:    "E14-faults-repair",
		Title: "disk replacement: wipe one disk, rebuild it from surviving replicas",
		Columns: []string{"replicas k", "wiped disk", "repair pIOs",
			"lookups wrong after repair", "scrub pIOs", "bad blocks after scrub"},
	}

	keys := workload.Uniform(n, 1<<62, seed)
	build := func(k int) (*pdm.Machine, *core.BasicDict, *fault.Plan) {
		m := newMachine(pdm.Config{D: d, B: b})
		bd, err := core.NewBasic(m, core.BasicConfig{
			Capacity: n, SatWords: 2, K: k, Replicate: true, Seed: seed,
		})
		if err != nil {
			panic(err)
		}
		for _, x := range keys {
			if err := bd.Insert(x, []pdm.Word{pdm.Word(k), x}); err != nil {
				panic(err)
			}
		}
		plan := fault.NewPlan(uint64(seed))
		m.SetFaultInjector(plan)
		return m, bd, plan
	}
	// sweep runs every key through the checked lookup path and counts
	// answers that are missing, wrong, or inconclusive.
	sweep := func(m *pdm.Machine, bd *core.BasicDict) (bad int, avg float64) {
		before := m.Stats().ParallelIOs
		for _, x := range keys {
			sat, ok, err := bd.LookupTry(x)
			if err != nil || !ok || sat[1] != x {
				bad++
			}
		}
		return bad, float64(m.Stats().ParallelIOs-before) / float64(n)
	}

	for _, k := range []int{2, 3} {
		m, bd, plan := build(k)
		var healthy float64
		for f := 0; f < k; f++ {
			plan.Reset()
			for disk := 0; disk < f; disk++ {
				plan.FailDisk(disk)
			}
			bad, avg := sweep(m, bd)
			if f == 0 {
				healthy = avg
			}
			lookups.AddRow(k, f, n, bad, avg, avg/healthy)
			if bad != 0 {
				panic(fmt.Sprintf("bench: %d lost lookups with %d of %d tolerated disks failed", bad, f, k-1))
			}
		}

		// Replacement: the worst-failed disk dies for good and comes back
		// blank; Repair rebuilds it from the other replica(s).
		plan.Reset()
		wiped := 0
		m.WipeDisk(wiped)
		before := m.Stats().ParallelIOs
		if err := bd.Repair(wiped); err != nil {
			panic(err)
		}
		repairCost := m.Stats().ParallelIOs - before
		bad, _ := sweep(m, bd)
		before = m.Stats().ParallelIOs
		mismatches := bd.Scrub()
		scrubCost := m.Stats().ParallelIOs - before
		repairs.AddRow(k, wiped, repairCost, bad, scrubCost, len(mismatches))
		if bad != 0 || len(mismatches) != 0 {
			panic("bench: repair left wrong lookups or checksum mismatches")
		}
	}

	// Transient errors: no data is at risk, but every retry batch is an
	// accounted parallel I/O, so cost inflates with p.
	{
		m, bd, plan := build(2)
		_, healthy := sweep(m, bd)
		for _, p := range []float64{0.01, 0.05, 0.20} {
			plan.Reset()
			plan.SetTransient(p)
			bad, avg := sweep(m, bd)
			transient.AddRow(p, n, bad, avg, avg/healthy)
		}
	}

	lookups.Notes = append(lookups.Notes,
		"replicate mode stores k full copies on k distinct stripes, so any k−1 fail-stop disks leave ≥1 readable copy of every record",
		"lookup cost stays flat under failures: the probe reads the same d buckets either way — tolerance is paid in space (k×), not I/Os")
	transient.Notes = append(transient.Notes,
		"a transient error fails only the probed block, and LookupTry re-issues a failed block only while the key is unsettled: one replica settles a stored key, so a lookup pays a retry round only when all k of its replicas' blocks fail in the same round — inflation ≈ p^k, 0.04 at p=0.20 with k=2",
		"a lookup is inconclusive (never a false absence) only when every replica's bucket exhausts its retries — with k=2 that is ≈(p⁴)² per lookup, invisible even at p=0.20")
	repairs.Notes = append(repairs.Notes,
		"repair reads the surviving stripes row by row and rewrites the wiped disk's buckets in canonical order — bit-identical to the pre-failure layout",
		"a clean scrub (0 bad blocks) re-verifies every checksum and clears the machine's degraded flag")
	return []Table{lookups, transient, repairs}
}
