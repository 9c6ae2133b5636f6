// Command benchmark is the repository's host-cost benchmark: six named
// workloads driven unpaced through the public pdmdict API, every result
// checked against an oracle, end-to-end metrics from an untraced pass
// and per-layer metrics from a separate traced pass. See README.md in
// this directory.
//
//	go run ./benchmark -seed 1                       # every workload, both passes
//	go run ./benchmark -workload point-read -trace 0 # one run, JSON on the last line
//	go run ./benchmark -compare a.json b.json        # judge b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 8

// traceDir is where the traced pass writes its span files, relative to
// the working directory (the root of a checkout).
const traceDir = "benchmark/out"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and print one JSON result line (default: all six, both passes)")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Int("seconds", defaultSeconds, "length of a measured phase; the op count is the workload's frozen rate times this")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	out := fs.String("out", "", "append the results to this file, for -compare")
	short := fs.Bool("short", false, "use the small sizing of the package's tests, for a smoke run; the numbers compare with nothing")
	compare := fs.Bool("compare", false, "compare two result files given as arguments and exit non-zero if the second is worse")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1, -trace 0 or 1, and no arguments follow the flags")
		return 2
	}
	if *name != "" {
		return runOne(*name, *seed, *seconds, *trace == 1, *short, *out, stdout, stderr)
	}
	return runSuite(*seed, *seconds, *short, *out, stdout, stderr)
}

// setupsFor is how often a run builds its dictionary: once in a smoke
// run, setupRepeats times or more when setup_s is to be trusted.
func setupsFor(short bool) int {
	if short {
		return 1
	}
	return setupRepeats
}

// metricValue is one entry of the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the JSON object the driver reads from the last line.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne is the driver's entry: one workload, one pass, one JSON line.
func runOne(name string, seed uint64, seconds int, traced, short bool, out string, stdout, stderr io.Writer) int {
	w := workloadByName(name)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	line := driverLine{Metrics: map[string]metricValue{}}
	var res runResult
	var err error
	if traced {
		res, err = tracedRun(w, seed, short, seconds, traceDir)
		for _, d := range perLayer {
			line.Metrics[d.name] = metricValue{finite(res.PerLayer[d.name]), d.unit}
		}
	} else {
		res, err = measure(w, seed, w.sizing(short), seconds, setupsFor(short))
		for _, d := range endToEnd {
			if d.gated {
				line.Metrics[d.name] = metricValue{finite(res.EndToEnd[d.name]), d.unit}
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	printRun(stdout, res)
	if err := appendResults(out, res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line.Attempted, line.Failed = res.Attempted, res.Failed
	line.Correct = res.Failed == 0
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", enc)
	if !line.Correct {
		return 1
	}
	return 0
}

// finite maps the values JSON cannot carry to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// printRun prints one run's metrics by name with units.
func printRun(w io.Writer, res runResult) {
	fmt.Fprintf(w, "%s seed=%d seconds=%d ops=%d attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Ops, res.Attempted, res.Failed)
	if res.EndToEnd != nil {
		fmt.Fprintf(w, "  tail percentiles rest on at least %d lookup samples each\n", res.Samples)
		if res.Rebuilds > 0 {
			fmt.Fprintf(w, "  %d global rebuilds completed\n", res.Rebuilds)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, v, d.unit)
			}
		}
	}
	if res.PerLayer != nil {
		fmt.Fprintf(w, "  traced: %d sampled calls, %d spans, child spans cover %.0f %% of the sampled root time\n",
			res.SampledCalls, res.Spans, 100*res.ChildCover)
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, res.PerLayer[d.name], d.unit)
		}
	}
}

// resultFile is what -out writes and -compare reads: every run appended
// so far.
type resultFile struct {
	Runs []runResult `json:"runs"`
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// runSuite runs every workload, untraced then traced, and prints all
// metrics. It exits non-zero if any result was rejected by the oracle.
func runSuite(seed uint64, seconds int, short bool, out string, stdout, stderr io.Writer) int {
	code := 0
	var runs []runResult
	for i := range workloads {
		w := &workloads[i]
		res, err := measure(w, seed, w.sizing(short), seconds, setupsFor(short))
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		tr, err := tracedRun(w, seed, short, seconds, traceDir)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		res.PerLayer, res.SampledCalls, res.Spans, res.ChildCover = tr.PerLayer, tr.SampledCalls, tr.Spans, tr.ChildCover
		res.Attempted += tr.Attempted
		res.Failed += tr.Failed
		printRun(stdout, res)
		if res.Failed > 0 {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d results rejected by the oracle\n", w.name, res.Failed, res.Attempted)
			code = 1
		}
		runs = append(runs, res)
	}
	if err := appendResults(out, runs...); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return code
}

// appendResults adds runs to the result file at path, creating it if
// need be; an empty path keeps nothing.
func appendResults(path string, runs ...runResult) error {
	if path == "" {
		return nil
	}
	file, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	file.Runs = append(file.Runs, runs...)
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
