package main

import (
	"testing"
	"time"
)

// TestOpenLoopCountsStall checks the open loop's defining property: an
// operation that stalls delays the ones due after it, and their latency,
// measured from when they were due, includes that wait.
func TestOpenLoopCountsStall(t *testing.T) {
	const (
		rate    = 100 // one operation due every 10ms
		stalled = 5   // due at 50ms
		stall   = 100 * time.Millisecond
	)
	ops := openLoop(rate, 300*time.Millisecond, 1, 0, func(i int) op {
		o := op{begin: time.Now()}
		if i == stalled {
			time.Sleep(stall)
		}
		o.end = time.Now()
		return o
	})
	if len(ops) != 30 {
		t.Fatalf("%d operations, want 30", len(ops))
	}
	if ops[stalled].lat < stall {
		t.Errorf("stalled operation latency %v, want at least the stall %v", ops[stalled].lat, stall)
	}
	// With one caller, operation i > stalled cannot finish before the
	// stalled one did, at 50ms + stall at the earliest, though it was due
	// at 10ms·i.
	for i := stalled + 1; i < stalled+5; i++ {
		due := time.Duration(i) * 10 * time.Millisecond
		if want := 50*time.Millisecond + stall - due; ops[i].lat < want {
			t.Errorf("operation %d latency %v, want at least %v behind the stall", i, ops[i].lat, want)
		}
	}
}

func TestClosedLoopRunsWholeBatches(t *testing.T) {
	for _, dur := range []time.Duration{0, 20 * time.Millisecond} {
		ops, _ := closedLoop(dur, 1, 0, 7, func(i int) op {
			time.Sleep(time.Millisecond)
			return op{begin: time.Now(), end: time.Now()}
		})
		if len(ops) == 0 || len(ops)%7 != 0 {
			t.Errorf("closed loop over %v: %d operations, want whole batches of 7", dur, len(ops))
		}
	}
}

// TestQuietPointsCalibrateEveryOperation checks that both loops stop at
// quiet points and give every operation the calibration time there, and
// that the closed loop's normalized time follows it.
func TestQuietPointsCalibrateEveryOperation(t *testing.T) {
	do := func(i int) op {
		o := op{begin: time.Now()}
		time.Sleep(time.Millisecond)
		o.end = time.Now()
		return o
	}
	const dur = 3 * quietEvery
	open := openLoop(200, dur, 2, 0, do)
	closed, elapsed := closedLoop(dur, 2, 0, 1, do)
	for name, ops := range map[string][]op{"open": open, "closed": closed} {
		if len(ops) == 0 {
			t.Fatalf("%s loop ran no operations", name)
		}
		for i, o := range ops {
			if o.cal <= 0 {
				t.Errorf("%s loop operation %d has no calibration time", name, i)
			}
		}
	}
	if elapsed.wall < dur || elapsed.norm <= 0 {
		t.Errorf("closed loop time %+v, want at least %v of wall time and a normalized time", elapsed, dur)
	}
}

func TestNormalize(t *testing.T) {
	if got := normalize(30*time.Millisecond, 2*calNominal); got != 15*time.Millisecond {
		t.Errorf("30ms where calibration took twice its nominal time: %v, want 15ms", got)
	}
	if got := normalize(30*time.Millisecond, 0); got != 30*time.Millisecond {
		t.Errorf("no calibration: %v, want the raw 30ms", got)
	}
}
