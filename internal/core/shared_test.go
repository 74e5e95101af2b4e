package core

import (
	"math/rand/v2"
	"testing"

	"rmq/internal/cache"
	"rmq/internal/catalog"
	"rmq/internal/costmodel"
	"rmq/internal/opt"
	"rmq/internal/quality"
	"rmq/internal/tableset"
)

// sharedProblem builds a problem over the store's interner, the wiring
// shared-cache workers use.
func sharedProblem(tb testing.TB, sh *cache.Shared, n int, seed uint64) *opt.Problem {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 2))
	cat := catalog.Generate(catalog.GenSpec{Tables: n, Graph: catalog.Chain, Selectivity: catalog.Steinbrunn}, rng)
	return opt.NewProblemWithInterner(cat, costmodel.AllMetrics(), sh.Interner())
}

// TestRMQSharedWarmStart pins the warm-start contract: after one
// optimizer fills the store, a second one attached to the same store
// reports a frontier at least as good as the first one's final result
// before performing a single step, and never regresses below it.
func TestRMQSharedWarmStart(t *testing.T) {
	sh := cache.NewShared(tableset.NewInterner(), 1)
	p := sharedProblem(t, sh, 12, 42)

	cold := New(Config{Shared: sh})
	cold.Init(p, 7)
	for i := 0; i < 150; i++ {
		cold.Step()
	}
	coldCosts := opt.Costs(cold.Frontier())
	if len(coldCosts) == 0 {
		t.Fatal("cold run found nothing")
	}

	warm := New(Config{Shared: sh})
	warm.Init(p, 8) // different seed: the warm start, not luck, must explain parity
	warmCosts := opt.Costs(warm.Frontier())
	if eps := quality.Epsilon(warmCosts, coldCosts); eps > 1 {
		t.Fatalf("warm frontier before first step: ε = %g vs cold result, want 1", eps)
	}
	for i := 0; i < 20; i++ {
		warm.Step()
	}
	if eps := quality.Epsilon(opt.Costs(warm.Frontier()), coldCosts); eps > 1 {
		t.Fatalf("warm frontier after 20 steps: ε = %g vs cold result, want ≤ 1", eps)
	}
}

// TestRMQSharedInternerMismatchFallsBack pins the safety valve: a store
// whose interner is not the problem's runs the optimizer privately (the
// foreign id namespace must be ignored, not mixed in).
func TestRMQSharedInternerMismatchFallsBack(t *testing.T) {
	sh := cache.NewShared(tableset.NewInterner(), 1)
	p := testProblem(t, 8, 42) // private interner, NOT the store's
	r := New(Config{Shared: sh})
	r.Init(p, 7)
	for i := 0; i < 40; i++ {
		r.Step()
	}
	if len(r.Frontier()) == 0 {
		t.Fatal("mismatched-interner run found nothing")
	}
	if sets, plans := sh.Stats(); sets != 0 || plans != 0 {
		t.Fatalf("mismatched store was written to: (%d, %d)", sets, plans)
	}
}

// TestRMQSharedSoloFirstRunMatchesPrivate pins that the FIRST run over
// a fresh store with a single worker follows the private trajectory
// bit-identically: its own publishes are never pulled back, so sharing
// only changes later (warmed) runs.
func TestRMQSharedSoloFirstRunMatchesPrivate(t *testing.T) {
	sh := cache.NewShared(tableset.NewInterner(), 1)
	ps := sharedProblem(t, sh, 10, 42)
	pp := testProblem(t, 10, 42)

	shared := New(Config{Shared: sh})
	shared.Init(ps, 7)
	private := New(Config{})
	private.Init(pp, 7)
	for i := 0; i < 120; i++ {
		shared.Step()
		private.Step()
	}
	a, b := shared.Frontier(), private.Frontier()
	if len(a) != len(b) {
		t.Fatalf("frontier sizes diverged: shared %d, private %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Cost.Equal(b[i].Cost) {
			t.Fatalf("plan %d cost diverged: %v vs %v", i, a[i].Cost, b[i].Cost)
		}
	}
}
