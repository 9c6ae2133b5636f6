// Command pdmbench runs the experiment suite that reproduces the
// paper's Figure 1 and validates every lemma/theorem bound (DESIGN.md's
// per-experiment index), printing one table per experiment.
//
// Usage:
//
//	pdmbench [-run regexp | -faults | -parallel ladder | -chaos] [-md | -csv | -json]
//	         [-list] [-out file] [-serve addr]
//
// -json emits the run as one JSON document — {"schema_version": N,
// "tables": [...]} — that also carries the per-operation parallel-I/O
// histograms (log₂ buckets, p50/p99/max) behind the summary rows; the
// text formats print only the aggregates. -out (alias -o) writes the
// output to a file. -serve exposes live /metrics, /healthz, and
// /debug/pprof endpoints while the suite runs: every machine the
// experiments build reports into the served collector.
//
// Examples:
//
//	pdmbench -list                 # show the experiment index
//	pdmbench -run fig1             # regenerate Figure 1
//	pdmbench -run 'E[0-9]+' -md    # all E-experiments as markdown
//	pdmbench -run fig1 -json -out bench.json   # machine-readable report
//	pdmbench -out results.txt                  # full suite into a file
//	pdmbench -serve :8080                      # watch the run live
//	pdmbench -parallel 8                       # scheduler comparison, 1 vs 8 clients
//	pdmbench -parallel 1,8,64 -json -out BENCH_PR10.json
//
// -parallel runs the group-commit scheduler comparison instead of the
// experiment suite: at each client count the same uniform lookup
// workload runs direct (one parallel-I/O round per lookup) and through
// the deterministic-mode scheduler (concurrent lookups coalesced into
// one deduplicated shared round), reporting modeled steps per operation
// for both, the coalescing factor, and exact per-op accounting. It
// takes either a single count N (shorthand for the ladder 1,N) or an
// explicit comma-separated ladder like 1,8,64.
//
// -chaos runs the chaos soak instead of the experiment suite: a
// seed-generated schedule of fail/heal/corrupt rounds plays against a
// replicated dictionary while one seeded driver steps the clients'
// lookups, a patrol scrub that sweeps for silent damage, and the repair
// supervisor that heals every outage unaided, so the report is a
// function of -seed. The run exits non-zero if any soak invariant
// breaks (a key unavailable mid-soak, unattributed recovery I/O, damage
// surviving the soak, or no convergence), so CI can gate on the exit
// code:
//
//	pdmbench -chaos -seed 2 -json -out chaos.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pdmdict/internal/bench"
	"pdmdict/internal/obs"
)

// parseLadder turns the -parallel argument into a client ladder: a bare
// count N keeps the historical meaning (baseline 1 plus N), while an
// explicit comma-separated list is used verbatim.
func parseLadder(s string) ([]int, error) {
	if !strings.Contains(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-parallel %q: want a positive client count or a ladder like 1,8,64", s)
		}
		if n == 1 {
			return []int{1}, nil
		}
		return []int{1, n}, nil
	}
	var ladder []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-parallel %q: bad client count %q", s, part)
		}
		ladder = append(ladder, n)
	}
	if len(ladder) == 0 {
		return nil, fmt.Errorf("-parallel %q: empty ladder", s)
	}
	return ladder, nil
}

func main() {
	var (
		pattern  = flag.String("run", "", "regexp selecting experiment IDs (empty = all)")
		markdown = flag.Bool("md", false, "emit markdown tables instead of aligned text")
		csv      = flag.Bool("csv", false, "emit CSV (for plotting pipelines)")
		jsonOut  = flag.Bool("json", false, "emit one JSON document incl. per-op I/O histograms")
		list     = flag.Bool("list", false, "list experiments and exit")
		faults   = flag.Bool("faults", false, "run the fault-tolerance scenario (shorthand for -run E14-faults)")
		outPath  = flag.String("out", "", "write output to this file instead of stdout")
		serve    = flag.String("serve", "", "serve live /metrics, /healthz, and /debug/pprof on this address while running")
		parallel = flag.String("parallel", "", "run the group-commit scheduler comparison (direct vs coalesced modeled steps/op) over a client ladder: a count N (shorthand for 1,N) or an explicit ladder like 1,8,64")
		seed     = flag.Uint64("seed", 1, "parallel/chaos mode: workload seed")
		chaos    = flag.Bool("chaos", false, "run the chaos soak: scheduled fail/heal/corrupt rounds under stepped traffic and self-healing; exits non-zero if any soak invariant breaks")
		clients  = flag.Int("clients", 0, "chaos mode: lookup clients stepped each round (default 8)")
		rounds   = flag.Int("rounds", 0, "chaos mode: damage rounds in the generated schedule (default 6)")
	)
	flag.StringVar(outPath, "o", "", "alias for -out")
	flag.Parse()

	if *faults {
		if *pattern != "" {
			fmt.Fprintln(os.Stderr, "pdmbench: -faults and -run are mutually exclusive")
			os.Exit(1)
		}
		*pattern = "^E14-faults"
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdmbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	if *serve != "" {
		collector := obs.NewCollector()
		ring := obs.NewRing(1024)
		mon := obs.NewMonitor(obs.Tee(collector, ring), obs.DefaultRules()...)
		bench.SetHook(mon)
		srv := &obs.Server{Collector: collector, Ring: ring, Monitor: mon}
		addr, stop, err := srv.Serve(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdmbench:", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "pdmbench: serving metrics on http://%s/metrics\n", addr)
	}

	format := bench.FormatText
	switch {
	case *jsonOut:
		format = bench.FormatJSON
	case *csv:
		format = bench.FormatCSV
	case *markdown:
		format = bench.FormatMarkdown
	}

	if *parallel != "" {
		if *pattern != "" {
			fmt.Fprintln(os.Stderr, "pdmbench: -parallel and -run are mutually exclusive")
			os.Exit(1)
		}
		if *clients != 0 {
			fmt.Fprintln(os.Stderr, "pdmbench: -clients is a chaos-mode flag; give -parallel an explicit ladder (e.g. -parallel 1,8,64) instead")
			os.Exit(1)
		}
		ladder, err := parseLadder(*parallel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdmbench:", err)
			os.Exit(1)
		}
		table, results, err := bench.SchedTable(bench.SchedBenchConfig{Seed: *seed}, ladder)
		if err == nil {
			err = bench.WriteReport(out, bench.Report{Tables: []bench.Table{table}, Sched: results}, format)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdmbench:", err)
			os.Exit(1)
		}
		return
	}

	if *chaos {
		if *pattern != "" {
			fmt.Fprintln(os.Stderr, "pdmbench: -chaos is mutually exclusive with -run and -parallel")
			os.Exit(1)
		}
		res, err := bench.RunChaos(bench.ChaosConfig{Seed: *seed, Clients: *clients, Rounds: *rounds})
		werr := bench.WriteReport(out, bench.Report{Tables: []bench.Table{*bench.ChaosTable(res)}, Chaos: []bench.ChaosResult{res}}, format)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdmbench: chaos soak FAILED:", err)
			os.Exit(1)
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "pdmbench:", werr)
			os.Exit(1)
		}
		return
	}

	if _, err := bench.RunFormat(*pattern, out, format); err != nil {
		fmt.Fprintln(os.Stderr, "pdmbench:", err)
		os.Exit(1)
	}
}
