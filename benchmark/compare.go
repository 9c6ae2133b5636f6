package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of vs
// by linear interpolation between closest ranks (the "exclusive" method
// Python's statistics.quantiles uses). It needs no particular count; a
// single value is all three.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		// Position p·(n+1) on a 1-based scale, clamped to the sample.
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

// verdict judges the runs of one workload × metric: base is the side
// being compared against, cand the side under test. spread is the wider
// of the two sides' own run-to-run spreads (third minus first quartile
// over the median).
//
//   - When the spread is within the bound the medians decide: "worse" if
//     cand's is worse than base's by more than the bound, else "ok".
//   - When it is wider, a difference of medians cannot be told from
//     noise, so the runs themselves must decide: "ok" if every cand run
//     is at least as good as every base run, "worse" if every cand run is
//     worse than every base run and the medians differ by more than the
//     bound, else "unresolved".
func verdict(d *metricDef, base, cand []float64) (ratio, spread float64, v string) {
	bq1, bm, bq3 := quartiles(base)
	cq1, cm, cq3 := quartiles(cand)
	if bm != 0 {
		ratio = cm / bm
		spread = (bq3 - bq1) / bm
	}
	if cm != 0 {
		spread = math.Max(spread, (cq3-cq1)/cm)
	}
	worse := cm - bm // positive when cand is worse
	if d.better == "higher" {
		worse = bm - cm
	}
	beyond := worse > d.bound*math.Abs(bm)
	switch {
	case spread <= d.bound && beyond:
		return ratio, spread, "worse"
	case spread <= d.bound:
		return ratio, spread, "ok"
	case dominates(d, base, cand):
		return ratio, spread, "ok"
	case beyond && dominates(d, cand, base):
		return ratio, spread, "worse"
	default:
		return ratio, spread, "unresolved"
	}
}

// dominates reports whether every run of b is at least as good as every
// run of a.
func dominates(d *metricDef, a, b []float64) bool {
	for _, y := range b {
		for _, x := range a {
			if (d.better == "higher" && y < x) || (d.better == "lower" && y > x) {
				return false
			}
		}
	}
	return true
}

// compareFiles applies the end-to-end bounds to two result files and
// prints one row per workload × metric. It returns 1 if any row is
// worse, 0 otherwise.
func compareFiles(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err == nil && len(base.Runs) == 0 {
		err = fmt.Errorf("%s: no runs", basePath)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	cand, err := readResults(candPath)
	if err == nil && len(cand.Runs) == 0 {
		err = fmt.Errorf("%s: no runs", candPath)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	collect := func(f resultFile, workload, metric string) []float64 {
		var vs []float64
		for _, r := range f.Runs {
			if v, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
				vs = append(vs, v)
			}
		}
		return vs
	}
	fmt.Fprintf(stdout, "%-18s %-14s %14s %14s %8s %7s %6s  %s\n",
		"workload", "metric", "base median", "cand median", "cand/base", "spread", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for i := range endToEnd {
			d := &endToEnd[i]
			b, c := collect(base, w.name, d.name), collect(cand, w.name, d.name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			ratio, spread, v := verdict(d, b, c)
			_, bm, _ := quartiles(b)
			_, cm, _ := quartiles(c)
			fmt.Fprintf(stdout, "%-18s %-14s %14.4f %14.4f %8.4f %7.4f %6.2f  %s (n=%d,%d)\n",
				w.name, d.name, bm, cm, ratio, spread, d.bound, v, len(b), len(c))
			if v == "worse" {
				code = 1
			}
		}
	}
	return code
}
