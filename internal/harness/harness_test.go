package harness

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"rmq/internal/catalog"
)

func smallScenario() Scenario {
	return Scenario{
		Name:        "test, 6 tables, 2 metrics",
		Graph:       catalog.Chain,
		Tables:      6,
		Metrics:     2,
		Selectivity: catalog.Steinbrunn,
		Budget:      30 * time.Millisecond,
		Checkpoints: 4,
		Cases:       2,
		BaseSeed:    99,
		Algorithms:  []Algorithm{{Name: "ii"}, {Name: "rmq"}},
		Parallel:    1,
	}
}

func TestRunShapes(t *testing.T) {
	res := Run(context.Background(), smallScenario())
	if len(res.Times) != 4 {
		t.Fatalf("times = %v", res.Times)
	}
	if res.Times[3] != 30*time.Millisecond {
		t.Errorf("last checkpoint = %v", res.Times[3])
	}
	if len(res.Series) != 2 {
		t.Fatalf("series count = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Alpha) != 4 {
			t.Fatalf("series %s has %d points", s.Algorithm, len(s.Alpha))
		}
		for k, a := range s.Alpha {
			if a < 1 {
				t.Errorf("%s α[%d] = %g < 1", s.Algorithm, k, a)
			}
		}
	}
	if res.Series[0].Algorithm != "II" || res.Series[1].Algorithm != "RMQ" {
		t.Errorf("algorithm order: %v, %v", res.Series[0].Algorithm, res.Series[1].Algorithm)
	}
}

func TestRunCollectsRMQStats(t *testing.T) {
	res := Run(context.Background(), smallScenario())
	if math.IsNaN(res.MedianPathLength) {
		t.Error("RMQ path length not collected")
	}
	if res.MedianParetoPlans < 1 {
		t.Errorf("median Pareto plans = %g", res.MedianParetoPlans)
	}
}

func TestRunFinalAlphaReasonable(t *testing.T) {
	// The reference is the union of all final frontiers, so at least one
	// algorithm must end with a finite (and usually small) α.
	res := Run(context.Background(), smallScenario())
	last := len(res.Times) - 1
	best := math.Inf(1)
	for _, s := range res.Series {
		if s.Alpha[last] < best {
			best = s.Alpha[last]
		}
	}
	if math.IsInf(best, 1) {
		t.Error("no algorithm produced any result")
	}
}

func TestRunWithReferenceDP(t *testing.T) {
	s := smallScenario()
	s.Tables = 4
	s.RefAlpha = 1.01
	s.RefBudget = 10 * time.Second
	res := Run(context.Background(), s)
	last := len(res.Times) - 1
	for _, series := range res.Series {
		if series.Algorithm == "RMQ" && math.IsInf(series.Alpha[last], 1) {
			t.Error("RMQ produced nothing on a 4-table query")
		}
	}
}

func TestRunCancelledReportsOffScale(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res := Run(ctx, smallScenario())
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled run took %v", elapsed)
	}
	for _, s := range res.Series {
		for k, a := range s.Alpha {
			if !math.IsInf(a, 1) {
				t.Errorf("%s α[%d] = %g on a cancelled run, want +Inf", s.Algorithm, k, a)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{1, 3}); got != 2 {
		t.Errorf("median even = %g", got)
	}
	if got := median([]float64{1, math.Inf(1)}); got != 1 {
		t.Errorf("median with one Inf = %g (finite half wins)", got)
	}
	if got := median([]float64{math.Inf(1), math.Inf(1)}); !math.IsInf(got, 1) {
		t.Errorf("median of Infs = %g", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of empty = %g", got)
	}
}

func TestFormatAlpha(t *testing.T) {
	cases := map[float64]string{
		1:              "1.000",
		1.5:            "1.500",
		math.Inf(1):    "inf",
		1e40:           "10^40.0",
		12345678901234: "10^13.1",
	}
	for in, want := range cases {
		if got := FormatAlpha(in); got != want {
			t.Errorf("FormatAlpha(%g) = %q, want %q", in, got, want)
		}
	}
	if got := FormatAlpha(math.NaN()); got != "n/a" {
		t.Errorf("FormatAlpha(NaN) = %q", got)
	}
}

func TestResultTableRendering(t *testing.T) {
	res := Run(context.Background(), smallScenario())
	table := res.Table()
	for _, want := range []string{"time", "II", "RMQ", "0.030s"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	summary := res.Summary()
	if !strings.Contains(summary, "RMQ=") {
		t.Errorf("summary missing RMQ: %s", summary)
	}
}

func TestCheckpointTimesGrid(t *testing.T) {
	s := smallScenario()
	s.Budget = 100 * time.Millisecond
	s.Checkpoints = 5
	times := checkpointTimes(s)
	for i, ts := range times {
		want := time.Duration(i+1) * 20 * time.Millisecond
		if ts != want {
			t.Errorf("checkpoint %d = %v, want %v", i, ts, want)
		}
	}
}

func TestFigureScenarioCounts(t *testing.T) {
	tn := BenchTuning()
	counts := map[int]int{1: 15, 2: 15, 3: 15, 4: 12, 5: 12, 6: 6, 7: 6, 8: 6, 9: 6}
	figs := Figures(tn)
	for fig, want := range counts {
		if got := len(figs[fig]); got != want {
			t.Errorf("figure %d has %d scenarios, want %d", fig, got, want)
		}
	}
}

func TestFigureParameters(t *testing.T) {
	tn := BenchTuning()
	for _, s := range Figure1(tn) {
		if s.Metrics != 2 || s.Selectivity != catalog.Steinbrunn {
			t.Errorf("figure 1 scenario %s has wrong parameters", s.Name)
		}
		if len(s.Algorithms) != 8 {
			t.Errorf("figure 1 scenario %s has %d algorithms", s.Name, len(s.Algorithms))
		}
	}
	for _, s := range Figure5(tn) {
		if s.Metrics != 3 || s.Selectivity != catalog.MinMax {
			t.Errorf("figure 5 scenario %s has wrong parameters", s.Name)
		}
	}
	for _, s := range Figure8(tn) {
		if s.RefAlpha != 1.01 {
			t.Errorf("figure 8 scenario %s lacks the DP(1.01) reference", s.Name)
		}
		if s.Tables != 4 && s.Tables != 8 {
			t.Errorf("figure 8 scenario %s has %d tables", s.Name, s.Tables)
		}
	}
	for _, s := range Figure3(tn) {
		if len(s.Algorithms) != 1 || s.Algorithms[0].label() != "RMQ" {
			t.Errorf("figure 3 must run RMQ only, got %v", s.Algorithms)
		}
	}
}

func TestAllAlgorithmsLegendOrder(t *testing.T) {
	names := []string{}
	for _, a := range AllAlgorithms() {
		names = append(names, a.label())
	}
	want := []string{"DP(Infinity)", "DP(1000)", "DP(2)", "SA", "2P", "NSGA-II", "II", "RMQ"}
	if len(names) != len(want) {
		t.Fatalf("algorithms = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("algorithms = %v, want %v", names, want)
		}
	}
}

func TestBenchTuningEnvOverrides(t *testing.T) {
	t.Setenv("RMQ_BENCH_BUDGET_MS", "123")
	t.Setenv("RMQ_BENCH_CASES", "7")
	tn := BenchTuning()
	if tn.Budget != 123*time.Millisecond {
		t.Errorf("budget = %v", tn.Budget)
	}
	if tn.Cases != 7 || tn.CasesSmall != 7 {
		t.Errorf("cases = %d/%d", tn.Cases, tn.CasesSmall)
	}
}
