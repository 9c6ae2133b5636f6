// Command fskv is a small interactive key-value shell over the paper's
// dictionaries — the Section 1.2 file-system use case ("let keys
// consist of a file name and a block number"). It reads commands from
// stdin and reports the parallel-I/O cost of each.
//
// Commands:
//
//	put <file> <block#> <text…>   store a block
//	get <file> <block#>           fetch a block
//	del <file> <block#>           delete a block
//	fail <disk>                   inject a fail-stop fault on a disk
//	heal <disk>                   stop failing a disk (data NOT repaired)
//	repair <disk>                 rebuild a disk from survivors, verify it
//	scrub                         verify every block, clear degraded flag
//	health                        per-disk health states, recovery counters, alert summary
//	stats                         I/O counters so far
//	quit
//
// Unknown commands and malformed arguments print a usage line; the
// shell stays alive.
//
// By default the store is the fully dynamic dictionary. With
// -replicas k (k ≥ 2) it is the Section 4.1 dictionary in replicate
// mode: k full copies of every record on k distinct disks, so get keeps
// answering — through the checked, degraded-read path — with up to k−1
// disks failed, and repair rebuilds a failed disk bit-identically from
// the survivors. scrub and repair require -replicas; put and del use
// the fault-oblivious write path regardless (a write during a failure
// lands everywhere, so repair or scrub afterwards).
//
// Health is tracked per disk (Healthy/Suspect/Failed/Repairing), so
// recovering one disk never erases what is known about another: repair
// verifies just the repaired disk's stripe and returns only that disk
// to Healthy, while a machine-wide clean scrub clears everything. With
// -selfheal the background repair supervisor does all of this by
// itself: once a failed disk starts answering again (any get that
// touches it), the supervisor rebuilds and verifies it in bounded
// chunks interleaved with the shell's own commands.
//
// Every machine event also flows through the deterministic watchdog
// (obs.Monitor with the default rules): the balance auditor, the SLO
// burn-rate rule, health-flap detection, and the degraded-capacity
// rule, all clocked by the parallel-I/O step counter. With -selfheal a
// firing degraded-capacity alert additionally nudges the repair
// supervisor awake.
//
// With -serve addr the shell also serves live observability endpoints
// while it runs: Prometheus /metrics (including the exact token-based
// per-operation families and the pdm_alert_* watchdog state), /healthz
// (503 once the store is degraded), /debug/events (recent I/O events as
// trace JSONL), /debug/ops (the accountant's in-flight and recently
// completed operations), /debug/alerts (the watchdog's alert state as
// JSON), and the standard /debug/pprof profiles. With -trace file every
// machine event — alert annotations included — is additionally appended
// to the file as trace JSONL (the pdmtrace format), so a session can be
// replayed, folded, or re-alerted offline (pdmtrace -alerts).
//
// With -sched the dynamic store is served through the group-commit
// request scheduler (pdmdict.Scheduled) in serving mode: lookups that
// arrive within a bounded wall-time window are coalesced into one
// deduplicated shared I/O round, and writes are group-committed through
// a replayable checksummed intent log (-schedlog file) before they are
// applied. The wall clock only decides when a window closes — it is
// injected from outside the scheduler and never reaches the modeled
// machine, so traces stay deterministic by construction. -sched is for
// the dynamic store only: the replicated store's degraded-read path
// (LookupTry) bypasses the scheduler, so combining them is refused
// rather than silently serving two different read paths.
//
// fskv shuts down gracefully on SIGINT/SIGTERM as well as on EOF or
// quit: the operation in flight (commands run synchronously) completes
// and is fully accounted, the scheduler (with -sched) is drained —
// queued writes flush through the intent log to the store — the trace
// sink is flushed and closed, and the metrics server stops. A second
// signal kills the process the usual way (the signal context is
// restored once shutdown begins).
//
// stats reports, beyond the block count and total parallel I/Os, the
// fault state (degraded flag, failed disks, fault event count) and the
// hook-based observability view of the store: a per-tag breakdown
// (lookup / insert / fault.* / …) and the per-disk transfer tallies
// with a skew figure (max/mean; 1.00 is perfectly balanced — the
// quantity the paper's deterministic load balancing bounds).
//
// Names are handled by the NamedDict adapter: hashed to word keys, as
// the paper suggests ("the name can be easily hashed as well"), with
// the stored name verified on every access so collisions are impossible
// to observe.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pdmdict"
	"pdmdict/internal/fault"
	"pdmdict/internal/obs"
)

// blockWords is the satellite budget per stored block.
const blockWords = 32

func blockName(file string, blk uint64) string {
	return fmt.Sprintf("%s#%d", file, blk)
}

func encode(text string) []pdmdict.Word {
	sat := make([]pdmdict.Word, blockWords)
	b := []byte(text)
	if len(b) > (blockWords-1)*8 {
		b = b[:(blockWords-1)*8]
	}
	sat[0] = pdmdict.Word(len(b))
	for i, c := range b {
		sat[1+i/8] |= pdmdict.Word(c) << (8 * (i % 8))
	}
	return sat
}

func decode(sat []pdmdict.Word) string {
	n := int(sat[0])
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(sat[1+i/8] >> (8 * (i % 8)))
	}
	return string(b)
}

// store is what the shell needs from either backing dictionary.
type store interface {
	Insert(name string, sat []pdmdict.Word) error
	LookupTry(name string) ([]pdmdict.Word, bool, error)
	Delete(name string) bool
	Len() int
	IOStats() pdmdict.IOStats
}

// config carries the parsed flags into run, so tests can drive the
// shell without a process.
type config struct {
	replicas int
	serve    string
	trace    string
	selfheal bool
	sched    bool
	schedlog string
}

func main() {
	replicas := flag.Int("replicas", 0,
		"replicate each record onto this many distinct disks (≥2 enables degraded reads, repair, scrub)")
	serve := flag.String("serve", "",
		"serve live /metrics, /healthz, /debug/events, and /debug/pprof on this address (e.g. :8080 or 127.0.0.1:0)")
	trace := flag.String("trace", "",
		"append every machine event to this file as trace JSONL (flushed on shutdown)")
	selfheal := flag.Bool("selfheal", false,
		"run the background repair supervisor (requires -replicas ≥ 2): failed disks that answer again are rebuilt and verified automatically")
	schedMode := flag.Bool("sched", false,
		"serve through the group-commit request scheduler: windowed lookup coalescing and group-committed writes (dynamic store only)")
	schedlog := flag.String("schedlog", "",
		"with -sched: append the write intent log to this file (replayable, checksummed, group-committed)")
	flag.Parse()

	// First SIGINT/SIGTERM cancels the context (graceful drain); stop()
	// restores default delivery, so a second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, config{replicas: *replicas, serve: *serve, trace: *trace, selfheal: *selfheal,
		sched: *schedMode, schedlog: *schedlog}, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fskv:", err)
		os.Exit(1)
	}
}

// run is the whole shell: it builds the store, serves the observability
// endpoints, and processes commands until stdin ends, quit is typed, or
// ctx is canceled. Shutdown is graceful in every case: commands execute
// synchronously on this goroutine, so the operation in flight finishes
// (and is fully charged to its token) before the loop observes the
// cancellation; then the trace sink is flushed and the server stopped.
func run(ctx context.Context, cfg config, stdin io.Reader, stdout io.Writer) error {
	var (
		dict     store
		basic    *pdmdict.Basic     // non-nil iff -replicas ≥ 2
		sd       *pdmdict.Scheduled // non-nil iff -sched
		degraded func() bool
		faults   func() int64
		health   func() pdmdict.HealthReport // non-nil iff -replicas ≥ 2
		disks    int
	)
	collector := obs.NewCollector()
	ring := obs.NewRing(256)
	acct := obs.NewOpAccountant()
	sinks := []pdmdict.IOHook{collector, ring, acct}

	var traceSink *obs.JSONLWriter
	if cfg.trace != "" {
		f, err := os.Create(cfg.trace)
		if err != nil {
			return err
		}
		defer f.Close()
		traceSink = obs.NewJSONLWriter(f)
		sinks = append(sinks, traceSink)
	}
	flush := func() error {
		if traceSink == nil {
			return nil
		}
		if err := traceSink.Flush(); err != nil {
			return fmt.Errorf("flushing trace %s: %w", cfg.trace, err)
		}
		return nil
	}
	// The watchdog wraps the whole sink chain, so the alert events it
	// synthesizes reach every sink — the trace file included (v5).
	mon := obs.NewMonitor(obs.Tee(sinks...), obs.DefaultRules()...)

	if cfg.selfheal && cfg.replicas < 2 {
		return fmt.Errorf("-selfheal needs the replicated store: rerun with -replicas 2")
	}
	if cfg.sched && cfg.replicas >= 2 {
		return fmt.Errorf("-sched serves the dynamic store only: the replicated store's degraded-read path bypasses the scheduler")
	}
	if cfg.schedlog != "" && !cfg.sched {
		return fmt.Errorf("-schedlog needs -sched")
	}
	plan := fault.NewPlan(1)
	switch {
	case cfg.replicas >= 2:
		b, err := pdmdict.NewBasic(pdmdict.BasicOptions{
			Options: pdmdict.Options{
				Capacity:  1024,
				SatWords:  pdmdict.NamedSatWords(blockWords),
				BlockSize: 512,
				Seed:      1,
			},
			Replicas: cfg.replicas,
		})
		if err != nil {
			return err
		}
		b.SetHook(mon)
		b.SetFaultInjector(plan)
		basic = b
		dict = pdmdict.NewNamed(b, blockWords)
		degraded, faults = b.Degraded, b.FaultCount
		disks = b.Machine().D()
		health = b.Health
		if cfg.selfheal {
			wake, stopHeal := b.SelfHeal()
			// A firing degraded-capacity alert nudges the supervisor, so
			// healing starts at the alert edge rather than waiting for the
			// next health notification.
			mon.SetListener(func(ts []obs.AlertTransition) {
				for _, t := range ts {
					if t.Rule == "degraded_capacity" && t.To == obs.AlertFiring {
						wake()
					}
				}
			})
			defer stopHeal()
		}
	case cfg.replicas == 0 || cfg.replicas == 1:
		base, err := pdmdict.New(pdmdict.Options{
			Capacity: 1024,
			SatWords: pdmdict.NamedSatWords(blockWords),
			Seed:     1,
		})
		if err != nil {
			return err
		}
		base.SetHook(mon)
		base.SetFaultInjector(plan)
		inner := pdmdict.Dictionary(base)
		if cfg.sched {
			var logW io.Writer
			if cfg.schedlog != "" {
				// Append: a restart must not truncate the intents of
				// earlier runs.
				f, err := os.OpenFile(cfg.schedlog, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
				if err != nil {
					return err
				}
				defer f.Close()
				logW = f
			}
			// Serving mode: a short wall-time window bounds how long a
			// lone request waits for company. The clock is injected here —
			// it decides only when windows close and never reaches the
			// modeled machine, so the event trace stays deterministic.
			sd, err = pdmdict.NewScheduled(base, pdmdict.SchedOptions{
				MaxBatch:  8,
				Window:    2 * time.Millisecond,
				IntentLog: logW,
			})
			if err != nil {
				return err
			}
			inner = sd
		}
		dict = pdmdict.NewNamed(inner, blockWords)
		degraded = base.Degraded
		faults = func() int64 { return 0 }
		disks = 2 * 20 // Dict default: membership + cascade on 2d disks
	default:
		return fmt.Errorf("-replicas must be ≥ 2 (or 0 to disable)")
	}

	// drain is the common shutdown path: close the scheduler first (its
	// queued writes group-commit through the intent log and apply to the
	// store, so nothing acknowledged is lost), then flush the trace.
	drain := func() error {
		if sd != nil {
			if err := sd.Close(); err != nil {
				return fmt.Errorf("draining scheduler: %w", err)
			}
		}
		return flush()
	}

	if cfg.serve != "" {
		srv := &obs.Server{
			Collector:   collector,
			Ring:        ring,
			Accountant:  acct,
			Healthy:     func() bool { return !degraded() },
			Health:      health,
			Monitor:     mon,
			Fingerprint: fmt.Sprintf("replicas=%d,disks=%d,blockwords=%d", cfg.replicas, disks, blockWords),
		}
		if sd != nil {
			srv.Sched = sd.Snapshot
		}
		addr, stop, err := srv.Serve(cfg.serve)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(stdout, "serving metrics on http://%s/metrics (health: /healthz, profiles: /debug/pprof/)\n", addr)
	}

	mode := "dynamic store"
	if basic != nil {
		mode = fmt.Sprintf("replicated store (%d copies, tolerates %d failed disks)", cfg.replicas, cfg.replicas-1)
	}
	if sd != nil {
		mode += " via group-commit scheduler (2ms window, batch 8)"
	}
	fmt.Fprintf(stdout, "fskv: deterministic dictionary file store, %s (put/get/del/fail/heal/repair/scrub/health/stats/quit)\n", mode)

	// Feed lines through a channel so the command loop can select on
	// cancellation; the reader goroutine parks on stdin and exits when
	// the stream ends or nobody is listening anymore.
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-ctx.Done():
				return
			}
		}
	}()

	parseBlock := func(s, usage string) (uint64, bool) {
		blk, err := strconv.ParseUint(s, 10, 32)
		if err != nil {
			fmt.Fprintf(stdout, "bad block number %q\nusage: %s\n", s, usage)
			return 0, false
		}
		return blk, true
	}
	parseDisk := func(s, usage string) (int, bool) {
		d, err := strconv.Atoi(s)
		if err != nil || d < 0 || d >= disks {
			fmt.Fprintf(stdout, "bad disk %q (store has disks 0..%d)\nusage: %s\n", s, disks-1, usage)
			return 0, false
		}
		return d, true
	}
	for {
		fmt.Fprint(stdout, "> ")
		var (
			line string
			ok   bool
		)
		select {
		case <-ctx.Done():
			// The previous command already completed synchronously —
			// there is nothing half-charged to wait for.
			fmt.Fprintln(stdout, "\nfskv: signal received; drained in-flight operations, draining scheduler, flushing trace")
			return drain()
		case line, ok = <-lines:
			if !ok {
				return drain()
			}
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		before := dict.IOStats().ParallelIOs
		switch fields[0] {
		case "put":
			const usage = "put <file> <block#> <text…>"
			if len(fields) < 4 {
				fmt.Fprintln(stdout, "usage:", usage)
				continue
			}
			blk, ok := parseBlock(fields[2], usage)
			if !ok {
				continue
			}
			if err := dict.Insert(blockName(fields[1], blk), encode(strings.Join(fields[3:], " "))); err != nil {
				fmt.Fprintln(stdout, "put failed:", err)
				continue
			}
			fmt.Fprintf(stdout, "stored (%d parallel I/Os)\n", dict.IOStats().ParallelIOs-before)
		case "get":
			const usage = "get <file> <block#>"
			if len(fields) != 3 {
				fmt.Fprintln(stdout, "usage:", usage)
				continue
			}
			blk, ok := parseBlock(fields[2], usage)
			if !ok {
				continue
			}
			sat, found, err := dict.LookupTry(blockName(fields[1], blk))
			cost := dict.IOStats().ParallelIOs - before
			switch {
			case err != nil:
				fmt.Fprintf(stdout, "read inconclusive (%d parallel I/Os): %v\n", cost, err)
			case !found:
				fmt.Fprintf(stdout, "not found (%d parallel I/Os)\n", cost)
			default:
				fmt.Fprintf(stdout, "%q (%d parallel I/Os)\n", decode(sat), cost)
			}
		case "del":
			const usage = "del <file> <block#>"
			if len(fields) != 3 {
				fmt.Fprintln(stdout, "usage:", usage)
				continue
			}
			blk, ok := parseBlock(fields[2], usage)
			if !ok {
				continue
			}
			deleted := dict.Delete(blockName(fields[1], blk))
			fmt.Fprintf(stdout, "deleted=%v (%d parallel I/Os)\n", deleted, dict.IOStats().ParallelIOs-before)
		case "fail":
			const usage = "fail <disk>"
			if len(fields) != 2 {
				fmt.Fprintln(stdout, "usage:", usage)
				continue
			}
			d, ok := parseDisk(fields[1], usage)
			if !ok {
				continue
			}
			plan.FailDisk(d)
			fmt.Fprintf(stdout, "disk %d failed (fail-stop); failed disks: %v\n", d, plan.FailedDisks())
		case "heal":
			const usage = "heal <disk>"
			if len(fields) != 2 {
				fmt.Fprintln(stdout, "usage:", usage)
				continue
			}
			d, ok := parseDisk(fields[1], usage)
			if !ok {
				continue
			}
			plan.HealDisk(d)
			fmt.Fprintf(stdout, "disk %d healed (contents unchanged — run: repair %d)\n", d, d)
		case "repair":
			const usage = "repair <disk>"
			if len(fields) != 2 {
				fmt.Fprintln(stdout, "usage:", usage)
				continue
			}
			d, ok := parseDisk(fields[1], usage)
			if !ok {
				continue
			}
			if basic == nil {
				fmt.Fprintln(stdout, "repair needs the replicated store: rerun with -replicas 2")
				continue
			}
			if plan.Failed(d) {
				fmt.Fprintf(stdout, "disk %d is still failed — heal %d first\n", d, d)
				continue
			}
			if err := basic.Repair(d); err != nil {
				fmt.Fprintln(stdout, "repair failed:", err)
				continue
			}
			// Verify just the repaired disk: a clean per-disk scrub returns
			// ONLY this disk to Healthy, so what is known about any other
			// failed disk is preserved.
			if bad := basic.ScrubDisk(d); len(bad) != 0 {
				fmt.Fprintf(stdout, "disk %d rebuilt but verification found %d bad blocks: %v\n", d, len(bad), bad)
				continue
			}
			fmt.Fprintf(stdout, "disk %d rebuilt from replicas and verified healthy (%d parallel I/Os)\n", d, dict.IOStats().ParallelIOs-before)
			if unhealthy := health().Unhealthy(); len(unhealthy) > 0 {
				for _, dh := range unhealthy {
					fmt.Fprintf(stdout, "disk %d still %s\n", dh.Disk, dh.State)
				}
			}
		case "scrub":
			if basic == nil {
				fmt.Fprintln(stdout, "scrub needs the replicated store: rerun with -replicas 2")
				continue
			}
			bad := basic.Scrub()
			cost := dict.IOStats().ParallelIOs - before
			if len(bad) == 0 {
				fmt.Fprintf(stdout, "scrub clean: all blocks verified (%d parallel I/Os)\n", cost)
			} else {
				fmt.Fprintf(stdout, "scrub found %d bad blocks (%d parallel I/Os): %v\n", len(bad), cost, bad)
			}
		case "health":
			if health == nil {
				fmt.Fprintln(stdout, "health needs the replicated store: rerun with -replicas 2")
				continue
			}
			rep := health()
			for _, dh := range rep.Disks {
				extra := ""
				if dh.State == pdmdict.DiskFailed && dh.Reachable {
					extra = ", reachable"
				}
				fmt.Fprintf(stdout, "disk %d: %s (faults %d, transients %d, transitions %d%s)\n",
					dh.Disk, dh.State, dh.Faults, dh.Transients, dh.Transitions, extra)
			}
			fmt.Fprintf(stdout, "retries %d, hedged reads %d, backoff steps %d, repair chunks %d (%d rows)\n",
				rep.Retries, rep.Hedges, rep.BackoffSteps, rep.RepairChunks, rep.RepairRows)
			for _, r := range mon.Snapshot().Rules {
				fmt.Fprintf(stdout, "alert %s: firing=%d pending=%d transitions=%d cycles=%d\n",
					r.Rule, r.Firing, r.Pending, r.Transitions, r.Cycles)
			}
		case "stats":
			fmt.Fprintf(stdout, "blocks stored: %d, total parallel I/Os: %d\n",
				dict.Len(), dict.IOStats().ParallelIOs)
			fmt.Fprintf(stdout, "degraded: %v, failed disks: %v, fault events: %d\n",
				degraded(), plan.FailedDisks(), faults())
			var sb strings.Builder
			sb.WriteString("per-tag I/O breakdown:\n")
			collector.RenderTags(&sb)
			sb.WriteString("per-operation cost (modeled latency):\n")
			collector.RenderOps(&sb)
			sb.WriteString("per-disk transfers:\n")
			collector.RenderPerDisk(&sb)
			fmt.Fprint(stdout, sb.String())
		case "quit", "exit":
			return drain()
		default:
			fmt.Fprintf(stdout, "unknown command %q — commands: put get del fail heal repair scrub health stats quit\n", fields[0])
		}
	}
}
