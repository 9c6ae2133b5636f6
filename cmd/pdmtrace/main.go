// Command pdmtrace replays an operation trace against any of the
// package's dictionaries and reports the parallel-I/O cost profile —
// the tool for answering "what would MY workload cost on this
// structure?".
//
// Usage:
//
//	pdmtrace -struct dict|basic|dynamic|oneprobe|hash|cuckoo|twolevel|btree
//	         [-in trace.txt | -gen N -mix read|write] [-capacity C]
//	         [-sat words] [-degree d] [-block B] [-seed s] [-out trace.txt]
//	         [-hist] [-trace events.jsonl]
//	pdmtrace -spans events.jsonl [-topk K]
//	pdmtrace -alerts events.jsonl
//
// -hist prints log₂-bucketed histograms of parallel I/Os per operation
// plus a per-tag I/O breakdown and per-disk skew (via the hook-based
// collector). -trace streams every I/O batch as one JSON object per
// line — op kind, span tag, steps, depth, block addresses — which
// -spans folds back into exact per-operation costs.
//
// -spans analyzes a recorded event trace offline: it folds the trace's
// span events into per-operation records and prints per-tag parallel
// I/O and modeled-latency quantiles, the top-K most expensive spans,
// and a disk-skew timeline. Malformed traces are reported as file:line
// and exit nonzero.
//
// -alerts replays a recorded event trace through the deterministic
// watchdog (obs.Monitor with the default rules) and prints the alert
// timeline it produces — byte-identical to the live monitor's timeline
// on the same stream, since the watchdog's clock is the trace's own
// step counter.
//
// Examples:
//
//	pdmtrace -gen 10000 -mix read -struct basic     # synthetic read-mostly
//	pdmtrace -gen 10000 -out my.trace               # just write the trace
//	pdmtrace -in my.trace -struct btree             # replay it on a B-tree
//	pdmtrace -gen 10000 -struct dict -hist          # cost histograms + tags
//	pdmtrace -gen 10000 -trace io.jsonl             # record raw I/O events
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"pdmdict"
	"pdmdict/internal/obs"
	"pdmdict/internal/workload"
)

func main() {
	var (
		structName = flag.String("struct", "dict", "structure to drive: dict|basic|dynamic|oneprobe|hash|cuckoo|twolevel|btree")
		inPath     = flag.String("in", "", "trace file to replay (default: generate)")
		outPath    = flag.String("out", "", "write the (generated) trace here instead of replaying")
		gen        = flag.Int("gen", 10000, "synthetic trace length when -in is not given")
		mix        = flag.String("mix", "read", "synthetic mix: read|write")
		capacity   = flag.Int("capacity", 4096, "dictionary capacity")
		satWords   = flag.Int("sat", 1, "satellite words per key")
		degree     = flag.Int("degree", 20, "expander degree / disk group size")
		blockSize  = flag.Int("block", 64, "block size B in words")
		seed       = flag.Uint64("seed", 1, "structure seed")
		hist       = flag.Bool("hist", false, "print per-op I/O histograms, per-tag breakdown, and per-disk skew")
		tracePath  = flag.String("trace", "", "stream I/O events to this JSONL file")
		spansPath  = flag.String("spans", "", "analyze a recorded JSONL event trace: per-tag quantiles, top-K spans, skew timeline")
		alertsPath = flag.String("alerts", "", "replay a recorded JSONL event trace through the watchdog: alert timeline and per-rule summary")
		topk       = flag.Int("topk", 10, "how many expensive spans -spans reports")
	)
	flag.Parse()

	if *spansPath != "" {
		if err := runSpans(*spansPath, *topk, obs.CostModel{}, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pdmtrace:", err)
			os.Exit(1)
		}
		return
	}
	if *alertsPath != "" {
		if err := runAlerts(*alertsPath, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pdmtrace:", err)
			os.Exit(1)
		}
		return
	}

	ops, err := loadOps(*inPath, *gen, *mix, *capacity)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdmtrace:", err)
		os.Exit(1)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdmtrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := workload.WriteTrace(f, ops); err != nil {
			fmt.Fprintln(os.Stderr, "pdmtrace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d ops to %s\n", len(ops), *outPath)
		return
	}

	opts := pdmdict.Options{
		Capacity:  *capacity,
		SatWords:  *satWords,
		Degree:    *degree,
		BlockSize: *blockSize,
		Seed:      *seed,
	}
	dict, err := build(*structName, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdmtrace:", err)
		os.Exit(1)
	}

	// Optional observability: a metrics collector for -hist and a JSONL
	// event stream for -trace, teed into the same hook.
	var collector *obs.Collector
	var traceWriter *obs.JSONLWriter
	if *hist {
		collector = obs.NewCollector()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdmtrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		traceWriter = obs.NewJSONLWriter(f)
	}
	if collector != nil && traceWriter != nil {
		dict.SetHook(obs.Tee(collector, traceWriter))
	} else if collector != nil {
		dict.SetHook(collector)
	} else if traceWriter != nil {
		dict.SetHook(traceWriter)
	}

	sat := make([]pdmdict.Word, *satWords)
	for i := range sat {
		sat[i] = pdmdict.Word(i)
	}
	costs := map[workload.OpKind][]int64{}
	errors := 0
	for _, op := range ops {
		before := dict.IOStats().ParallelIOs
		switch op.Kind {
		case workload.OpInsert:
			if err := dict.Insert(op.Key, sat); err != nil {
				errors++
			}
		case workload.OpLookup:
			dict.Lookup(op.Key)
		case workload.OpDelete:
			dict.Delete(op.Key)
		}
		costs[op.Kind] = append(costs[op.Kind], dict.IOStats().ParallelIOs-before)
	}

	fmt.Printf("replayed %d ops on %q (capacity %d, σ=%d words, d=%d, B=%d)\n",
		len(ops), *structName, *capacity, *satWords, *degree, *blockSize)
	fmt.Printf("%-8s %8s %10s %8s %8s %8s\n", "op", "count", "avg I/Os", "p50", "p99", "max")
	for _, kind := range []workload.OpKind{workload.OpLookup, workload.OpInsert, workload.OpDelete} {
		cs := costs[kind]
		if len(cs) == 0 {
			continue
		}
		fmt.Printf("%-8s %8d %10.3f %8d %8d %8d\n",
			kindName(kind), len(cs), avg(cs), pct(cs, 0.50), pct(cs, 0.99), pct(cs, 1))
	}
	fmt.Printf("final: %d keys stored, %d total parallel I/Os", dict.Len(), dict.IOStats().ParallelIOs)
	if errors > 0 {
		fmt.Printf(", %d failed inserts (capacity)", errors)
	}
	fmt.Println()

	if collector != nil {
		var sb strings.Builder
		for _, kind := range []workload.OpKind{workload.OpLookup, workload.OpInsert, workload.OpDelete} {
			cs := costs[kind]
			if len(cs) == 0 {
				continue
			}
			var h obs.Hist
			for _, c := range cs {
				h.Observe(c)
			}
			h.Render(&sb, fmt.Sprintf("\nparallel I/Os per %s", kindName(kind)))
		}
		sb.WriteString("\nper-tag I/O breakdown\n")
		collector.RenderTags(&sb)
		sb.WriteString("\nper-disk transfers\n")
		collector.RenderPerDisk(&sb)
		fmt.Print(sb.String())
	}
	if traceWriter != nil {
		if err := traceWriter.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "pdmtrace: writing trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote I/O event trace to %s\n", *tracePath)
	}
}

func loadOps(inPath string, gen int, mix string, capacity int) ([]workload.Op, error) {
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.ReadTrace(f)
	}
	m := workload.ReadMostly
	if mix == "write" {
		m = workload.WriteHeavy
	}
	keys := workload.Uniform(capacity, 1<<44, 1)
	return workload.Ops(keys, gen, m, 0.05, 2), nil
}

// builders are the structures -struct accepts, by name.
var builders = map[string]func(pdmdict.Options) (pdmdict.Dictionary, error){
	"dict": func(o pdmdict.Options) (pdmdict.Dictionary, error) { return pdmdict.New(o) },
	"basic": func(o pdmdict.Options) (pdmdict.Dictionary, error) {
		return pdmdict.NewBasic(pdmdict.BasicOptions{Options: o})
	},
	"dynamic": func(o pdmdict.Options) (pdmdict.Dictionary, error) { return pdmdict.NewDynamic(o) },
	"oneprobe": func(o pdmdict.Options) (pdmdict.Dictionary, error) {
		return pdmdict.NewOneProbe(pdmdict.OneProbeOptions{Options: o})
	},
	"hash":     func(o pdmdict.Options) (pdmdict.Dictionary, error) { return pdmdict.NewHashTable(o) },
	"cuckoo":   func(o pdmdict.Options) (pdmdict.Dictionary, error) { return pdmdict.NewCuckoo(o) },
	"twolevel": func(o pdmdict.Options) (pdmdict.Dictionary, error) { return pdmdict.NewTwoLevel(o) },
	"btree": func(o pdmdict.Options) (pdmdict.Dictionary, error) {
		return pdmdict.NewBTree(pdmdict.BTreeOptions{Options: o})
	},
}

func build(name string, opts pdmdict.Options) (pdmdict.Dictionary, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("unknown structure %q", name)
	}
	return b(opts)
}

func kindName(k workload.OpKind) string {
	switch k {
	case workload.OpLookup:
		return "lookup"
	case workload.OpInsert:
		return "insert"
	default:
		return "delete"
	}
}

func avg(cs []int64) float64 {
	var sum int64
	for _, c := range cs {
		sum += c
	}
	return float64(sum) / float64(len(cs))
}

func pct(cs []int64, p float64) int64 {
	sorted := append([]int64(nil), cs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(p*float64(len(sorted)-1))]
}
