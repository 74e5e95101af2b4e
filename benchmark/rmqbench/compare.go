package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// compareMain implements `rmqbench compare A.json... -- B.json...`: for
// every workload and end-to-end metric it prints each side's median and
// quartiles over the untraced runs in its files and a verdict against
// the metric's BENCHMARK.json bound. It exits 1 if any metric is worse.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	sep := slices.Index(files, "--")
	if sep <= 0 || sep == len(files)-1 {
		fmt.Fprintln(os.Stderr, "usage: rmqbench compare [-spec BENCHMARK.json] A.json... -- B.json...")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmqbench compare: %v\n", err)
		return 2
	}
	a, err := loadResults(files[:sep])
	if err == nil {
		var b []*result
		if b, err = loadResults(files[sep+1:]); err == nil {
			return printComparison(w, compareResults(spec, a, b))
		}
	}
	fmt.Fprintf(os.Stderr, "rmqbench compare: %v\n", err)
	return 2
}

func loadResults(paths []string) ([]*result, error) {
	var out []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", p, err)
		}
		out = append(out, f.Results...)
	}
	return out, nil
}

// sideStats summarizes one side's runs of one metric.
type sideStats struct {
	N              int
	Median, Q1, Q3 float64
}

func summarizeSide(values []float64) sideStats {
	q1, q3 := quartiles(values)
	return sideStats{N: len(values), Median: median(values), Q1: q1, Q3: q3}
}

// spread is the quartile distance as a share of the median.
func (s sideStats) spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

type comparison struct {
	Workload, Metric string
	A, B             sideStats
	Verdict          string
}

func compareResults(spec *benchSpec, a, b []*result) []comparison {
	var rows []comparison
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := metricValues(a, wl.Name, m.Name), metricValues(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rows = append(rows, comparison{
				Workload: wl.Name, Metric: m.Name,
				A: summarizeSide(va), B: summarizeSide(vb),
				Verdict: verdict(m, va, vb),
			})
		}
	}
	return rows
}

func metricValues(results []*result, workload, name string) []float64 {
	var out []float64
	for _, r := range results {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict applies a metric's bound to the runs of side A (the parent)
// and side B (the change). "worse": B's median is worse than A's by
// more than the bound, a share of A's median. "unresolved": either
// side's spread exceeds the bound, so the runs cannot tell, unless
// every run of B reads better than every run of A. "ok" otherwise.
func verdict(m specMetric, a, b []float64) string {
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	if allBetter {
		return "ok"
	}
	sa, sb := summarizeSide(a), summarizeSide(b)
	if sa.spread() > m.Bound || sb.spread() > m.Bound {
		return "unresolved"
	}
	change := (sb.Median - sa.Median) / math.Abs(sa.Median)
	if m.Better == "higher" {
		change = -change
	}
	if change > m.Bound {
		return "worse"
	}
	return "ok"
}

func printComparison(w io.Writer, rows []comparison) int {
	fmt.Fprintf(w, "%-12s %-14s %36s %36s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "verdict")
	code := 0
	for _, r := range rows {
		side := func(s sideStats) string { return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", s.Median, s.Q1, s.Q3, s.N) }
		fmt.Fprintf(w, "%-12s %-14s %36s %36s  %s\n", r.Workload, r.Metric, side(r.A), side(r.B), r.Verdict)
		if r.Verdict == "worse" {
			code = 1
		}
	}
	return code
}
