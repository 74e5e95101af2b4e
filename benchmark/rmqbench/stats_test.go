package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		samples []float64
		p       int
		want    float64
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 99, 10},
		{ten, 100, 10},
		{ten, 1, 1},
		{[]float64{42}, 50, 42},
		{[]float64{42}, 99, 42},
		{[]float64{1, 2}, 50, 1},
	} {
		if got := percentile(c.samples, c.p); got != c.want {
			t.Errorf("p%d of %v = %v, want %v", c.p, c.samples, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("p50 of nothing = %v, want NaN", got)
	}
	if ten[0] != 10 {
		t.Errorf("percentile sorted its input")
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), whose values the spreads of
// different tools must agree on.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.values)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
}

// TestLatencyPercentilesCountFailures checks that reported percentiles
// carry their sample counts and that a failed operation counts as
// missing every latency limit.
func TestLatencyPercentilesCountFailures(t *testing.T) {
	c := &runCtx{seed: 1}
	ops := func(failed int) *runData {
		d := &runData{tTime: loopTime{time.Second, time.Second}, setups: []time.Duration{time.Second}, setupCals: []time.Duration{calNominal}}
		for i := range 10 {
			o := op{kind: "query", lat: time.Duration(i+1) * time.Millisecond}
			if i < failed {
				o.err = errors.New("refused")
			}
			d.all = append(d.all, o)
		}
		d.lat, d.tput = d.all, d.all
		return d
	}
	r := buildResult("large-cold", c, ops(1), nil)
	if p90 := r.Metrics["p90_ms"]; p90.Value != 10 || p90.N != 10 {
		t.Errorf("one failure in ten: p90 = %+v, want 10 ms over 10 samples", p90)
	}
	if r.Failed != 1 || r.Attempted != 10 || !r.Correct {
		t.Errorf("one refused call: failed %d of %d, correct %v", r.Failed, r.Attempted, r.Correct)
	}
	r = buildResult("large-cold", c, ops(2), nil)
	if p90 := r.Metrics["p90_ms"]; p90.Value != math.MaxFloat64 {
		t.Errorf("two failures in ten: p90 = %v, want the +Inf stand-in", p90.Value)
	}
	if ops := r.Metrics["ops_per_s"]; ops.Value != 8 || ops.N != 8 {
		t.Errorf("ops_per_s = %+v, want 8 completed in 1 s", ops)
	}
}
