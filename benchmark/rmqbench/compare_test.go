package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100}
	for _, c := range []struct {
		name   string
		m      specMetric
		a, b   []float64
		expect string
	}{
		{"within bound", lower, parent, []float64{105, 106, 104, 105, 107, 103, 105}, "ok"},
		{"worse past bound", lower, parent, []float64{115, 116, 114, 115, 117, 113, 115}, "worse"},
		{"spread wider than bound", lower, parent, []float64{80, 120, 100, 140, 60, 130, 70}, "unresolved"},
		{"every run better despite spread", lower, parent, []float64{50, 70, 60, 90, 40, 80, 65}, "ok"},
		{"higher is better, fell", higher, parent, []float64{85, 86, 84, 85, 87, 83, 85}, "worse"},
		{"higher is better, rose", higher, parent, []float64{120, 121, 119, 120, 122, 118, 120}, "ok"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.expect {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.expect)
		}
	}
}

func TestCompareRowsPerWorkloadAndMetric(t *testing.T) {
	spec := &benchSpec{
		Workloads: []specWorkload{{Name: "restart"}},
		EndToEnd:  []specMetric{{Name: "p50_ms", Better: "lower", Bound: 0.1}},
	}
	run := func(v float64, traced bool) *result {
		return &result{Workload: "restart", Trace: traced, Metrics: map[string]metric{"p50_ms": {Value: v}}}
	}
	a := []*result{run(10, false), run(10.1, false), run(9.9, false)}
	b := []*result{run(13, false), run(13.1, false), run(12.9, false), run(1, true)}
	rows := compareResults(spec, a, b)
	if len(rows) != 1 || rows[0].Verdict != "worse" || rows[0].B.N != 3 {
		t.Fatalf("rows = %+v, want one worse row over the 3 untraced B runs", rows)
	}
}
