package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"rmq/internal/cache"
	"rmq/internal/tableset"
)

// The tests in this file pin the stage hand-off contract of Step: how
// far stage A may run ahead of stage B, and what each completion point
// waits for. None depends on timing: a gated stage B waits for a token
// before it runs, so the test decides when stage B may proceed, and
// each assertion can only fail if the hand-off is broken.

// gate holds every stage B of a run until the test lets it through.
type gate struct {
	ch              chan struct{}
	entered, passed atomic.Int32 // stage Bs that started, and that got past the gate
}

func newGate() *gate { return &gate{ch: make(chan struct{})} }

func (g *gate) hook() {
	g.entered.Add(1)
	<-g.ch
	g.passed.Add(1)
}

// twins returns two runs of one configuration over equal problems,
// seeded alike: a pipelined one, whose stage B runs hook first when
// hook is non-nil, and an inline one.
func twins(t *testing.T, shared bool, hook func()) (piped, inline *RMQ) {
	build := func(mode pipeMode) *RMQ {
		cfg, p := Config{}, testProblem(t, 12, 66)
		if shared {
			cfg.Shared = cache.NewShared(tableset.NewInterner(), 1)
			p = sharedProblem(t, cfg.Shared, 12, 66)
		}
		r := New(cfg)
		r.pipe = mode
		if mode == pipeAsync {
			r.stageHook = hook
		}
		r.Init(p, 9)
		return r
	}
	return build(pipeAsync), build(pipeInline)
}

// ringBusy reports whether a helper goroutine is draining r's ring.
func ringBusy(r *RMQ) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy
}

// TestRingStepWaitsOnlyWhenFull holds stage B at its first plan. Step
// must keep returning while the ring has room, which is ringCap+1
// steps (the first hands nothing off), and the next Step may return
// only after stage B let a plan through. Once released, the run matches
// its inline twin.
func TestRingStepWaitsOnlyWhenFull(t *testing.T) {
	g := newGate()
	piped, inline := twins(t, false, g.hook)
	for range ringCap + 1 {
		piped.Step()
	}
	returned := make(chan int32)
	go func() {
		piped.Step()
		returned <- g.passed.Load()
	}()
	g.ch <- struct{}{} // lets the first stage B through, which frees one slot
	if got := <-returned; got < 1 {
		t.Fatal("Step on a full ring returned before stage B let a plan through")
	}
	close(g.ch)
	for range ringCap + 2 {
		inline.Step()
	}
	sameRuns(t, ringCap+2, inline, piped)
}

// TestRingMatchesInlineAtOneCompletionPoint steps pipelined runs with no
// completion point in between, so stage A runs up to a ring ahead of
// stage B, then completes them once with Stats: each must match its
// inline twin, for a private and for a shared cache.
func TestRingMatchesInlineAtOneCompletionPoint(t *testing.T) {
	const steps = 50
	for _, shared := range []bool{false, true} {
		piped, inline := twins(t, shared, nil)
		for range steps {
			piped.Step()
			inline.Step()
		}
		sameRuns(t, steps, inline, piped)
		if shared {
			ps, pp := piped.cfg.Shared.Stats()
			is, ip := inline.cfg.Shared.Stats()
			if ps != is || pp != ip {
				t.Fatalf("stores hold %d sets/%d plans pipelined, %d/%d inline", ps, pp, is, ip)
			}
		}
	}
}

// TestRingInitDropsOnlyPending re-initializes a run on its own problem
// after ringCap+1 steps with no completion point, while stage B holds
// the ring's plans at the gate. Init must return only after stage B
// applied all ringCap of them, and must drop the last, pending plan:
// for a shared run, the store and the retained private cache are then
// those an inline run of ringCap steps leaves.
func TestRingInitDropsOnlyPending(t *testing.T) {
	const steps = ringCap + 1
	for _, shared := range []bool{false, true} {
		g := newGate()
		piped, inline := twins(t, shared, g.hook)
		for range steps {
			piped.Step()
		}
		passed := make(chan int32)
		go func() {
			piped.Init(piped.problem, 9)
			passed <- g.passed.Load()
		}()
		close(g.ch)
		if got := <-passed; got != steps-1 || g.entered.Load() != steps-1 {
			t.Fatalf("shared %v: Init after %d steps returned after %d stage Bs and started %d, want %d",
				shared, steps, got, g.entered.Load(), steps-1)
		}
		if !shared {
			continue
		}
		for range steps - 1 {
			inline.Step()
		}
		inline.Init(inline.problem, 9)
		ps, pp := piped.cfg.Shared.Stats()
		is, ip := inline.cfg.Shared.Stats()
		if ps != is || pp != ip {
			t.Fatalf("stores hold %d sets/%d plans pipelined, %d/%d inline", ps, pp, is, ip)
		}
		sameCaches(t, steps, inline.problem.Model.Interner(), inline.Cache(), piped.Cache())
	}
}

// TestRingStageAPanicWaits panics stage A while stage B holds two plans
// at the gate. Step must not unwind before both are approximated: once
// the panic reaches the caller, the ring is idle, no helper goroutine is
// left and the private cache is the one two inline steps build.
func TestRingStageAPanicWaits(t *testing.T) {
	base := runtime.NumGoroutine()
	g := newGate()
	piped, inline := twins(t, false, g.hook)
	climbs := 0
	piped.climbHook = func() {
		if climbs++; climbs == 3 {
			panic("injected stage A fault")
		}
	}
	piped.Step()
	piped.Step()
	type unwind struct {
		value any
		busy  bool
	}
	unwound := make(chan unwind)
	go func() {
		defer func() {
			v := recover()
			unwound <- unwind{v, ringBusy(piped)}
		}()
		piped.Step()
	}()
	close(g.ch)
	u := <-unwound
	if u.value != "injected stage A fault" {
		t.Fatalf("Step unwound with %v, want the injected panic", u.value)
	}
	if u.busy || g.passed.Load() != 2 {
		t.Fatalf("Step unwound with the ring busy (%v) after %d of 2 stage Bs", u.busy, g.passed.Load())
	}
	waitGoroutines(t, base)
	inline.Step()
	inline.Step()
	sameCaches(t, 3, inline.problem.Model.Interner(), inline.cache, piped.cache)
}

// TestRingInitWaitsForAbandonedRun pools a shared problem whose run
// ended without a completion point, as a run that panics between steps
// does, while stage B still holds two plans. A new RMQ that adopts the
// problem's private cache must wait in Init until those stage Bs are
// done: they write that cache.
func TestRingInitWaitsForAbandonedRun(t *testing.T) {
	g := newGate()
	old, _ := twins(t, true, g.hook)
	for range 3 {
		old.Step()
	}
	adopted := make(chan bool)
	go func() {
		r := New(old.cfg)
		r.Init(old.problem, 5)
		adopted <- ringBusy(old)
	}()
	close(g.ch)
	if <-adopted || g.passed.Load() != 2 {
		t.Fatalf("Init adopted the cache with the old run's ring busy after %d of 2 stage Bs", g.passed.Load())
	}
}
