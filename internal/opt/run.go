package opt

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rmq/internal/faultinject"
	"rmq/internal/plan"
)

// PanicError records a panic recovered at a worker boundary inside Run.
// The run survives: the failing worker's deposits up to the panic still
// fold into the shared archive, and Run returns the partial merged
// result alongside this error. Callers decide whether a partial
// frontier is acceptable (the anytime guarantee says it is a valid
// coarser approximation) or the request must fail.
type PanicError struct {
	// Worker is the index of the worker whose goroutine panicked.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("opt: worker %d panicked: %v", e.Worker, e.Value)
}

// Drive is the anytime driver loop shared by every caller that steps an
// optimizer: it steps o until the context is cancelled, o reports no
// more work, maxSteps is reached (0 means unbounded), or after returns
// false. after, when non-nil, runs after every step with the 1-based
// step count; the optimizer is quiescent during the call, so after may
// inspect o.Frontier(). Drive returns the number of steps performed.
//
// Cancellation is checked between steps, so reaction latency is bounded
// by the duration of a single optimizer step.
func Drive(ctx context.Context, o Optimizer, maxSteps int, after func(steps int) bool) int {
	done := ctx.Done()
	steps := 0
	for {
		select {
		case <-done:
			return steps
		default:
		}
		more := o.Step()
		steps++
		if after != nil && !after(steps) {
			return steps
		}
		if !more || (maxSteps > 0 && steps >= maxSteps) {
			return steps
		}
	}
}

// Worker is one optimizer instance of a (possibly parallel) run. Each
// worker needs its own Problem, whose Retained state belongs to one
// optimizer. Workers may share an interner, as the workers of a
// shared-cache run share their store's.
type Worker struct {
	Optimizer Optimizer
	Problem   *Problem
	Seed      uint64
}

// Event is an anytime notification emitted by Run whenever a worker
// merged its frontier into the shared archive.
type Event struct {
	// Iterations is the total number of optimizer steps performed so
	// far, summed across workers.
	Iterations int
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Improved reports whether the merge admitted at least one plan to
	// the shared archive.
	Improved bool

	snapshot func() []*plan.Plan
}

// Snapshot returns a fresh copy of the current merged non-dominated
// plan set. The copy is owned by the caller and stays valid after the
// callback returns.
func (e Event) Snapshot() []*plan.Plan { return e.snapshot() }

// RunConfig parameterizes Run.
type RunConfig struct {
	// Workers are the optimizer instances to drive; one worker runs
	// sequentially on the caller's goroutine, several run concurrently.
	Workers []Worker
	// MaxIterations caps the steps of each worker (0 = unbounded).
	MaxIterations int
	// MergeEvery is the number of steps a worker performs between
	// merges of its frontier into the shared archive; default 1.
	MergeEvery int
	// Observe, when non-nil, is invoked after every merge. Calls are
	// serialized across workers, so the callback needs no locking of
	// its own; it must not block for long, since it stalls the merging
	// worker.
	Observe func(Event)
}

// RunResult is the outcome of a Run: the merged non-dominated plans and
// aggregate statistics.
type RunResult struct {
	Plans      []*plan.Plan
	Iterations int
	Elapsed    time.Duration
}

// Run drives one or more optimizer workers until the context is
// cancelled, every worker hits MaxIterations, or no worker has work
// left. Workers merge their frontiers into a shared non-dominated
// archive, so the result is the non-dominated union of everything any
// worker reported. Merge moments are unspecified beyond "between steps,
// and always once at the end" — with an observer workers merge every
// MergeEvery steps, without one only at the end — so the result is
// observation-independent exactly for the cumulative frontiers the
// Optimizer contract asks for. Cancellation is the normal way to end an
// unbounded run (anytime semantics): Run then returns the partial
// result and a nil error, not the context's error.
//
// A merge adds the worker's plans — just the delta since its last merge
// when the optimizer implements DeltaFrontier, its whole frontier
// otherwise — to the archive under one lock, then notifies the
// observer. One lock suffices: merges happen only between steps, only
// when someone observes the run (and once per worker at the end), and
// each adds a few plans to a root archive of tens, so a merge is short
// next to the step that precedes it.
//
// A panic in a worker (the optimizer's Step, a merge, or the Observe
// callback) is contained at that worker's boundary: the other workers
// run to completion, the panicking worker's merges up to the panic stay
// in the archive, and Run returns the partial merged result together
// with a *PanicError per failed worker (joined). Only a panic on the
// caller's own goroutine before workers start can escape.
func Run(ctx context.Context, cfg RunConfig) (RunResult, error) {
	if len(cfg.Workers) == 0 {
		return RunResult{}, errors.New("opt: run needs at least one worker")
	}
	for _, w := range cfg.Workers {
		if w.Optimizer == nil || w.Problem == nil {
			return RunResult{}, errors.New("opt: worker needs an optimizer and a problem")
		}
	}
	mergeEvery := cfg.MergeEvery
	if mergeEvery <= 0 {
		mergeEvery = 1
	}
	start := time.Now() //rmq:allow-detrand(Elapsed telemetry only; never steers the search)
	var (
		mu       sync.Mutex // guards archive
		archive  Archive
		cbMu     sync.Mutex // serializes Observe calls
		total    atomic.Int64
		failMu   sync.Mutex // guards failures
		failures []error
	)
	snapshot := func() []*plan.Plan {
		mu.Lock()
		defer mu.Unlock()
		return append([]*plan.Plan(nil), archive.Plans()...)
	}
	runWorker := func(idx int, w Worker) {
		// Panic boundary: contain anything the optimizer, the merge or
		// the Observe callback throws, so one poisoned worker cannot
		// take down its siblings or the process. The defer-based unlocks
		// below guarantee the unwind releases every lock.
		defer func() {
			if r := recover(); r != nil {
				failMu.Lock()
				defer failMu.Unlock()
				failures = append(failures, &PanicError{Worker: idx, Value: r, Stack: debug.Stack()})
			}
		}()
		w.Optimizer.Init(w.Problem, w.Seed)
		df, _ := w.Optimizer.(DeltaFrontier)
		var mark uint64
		// add holds mu only while it adds: the observer that merge
		// calls next may take it again through Event.Snapshot.
		add := func() (improved bool) {
			var fresh []*plan.Plan
			if df != nil {
				fresh, mark = df.FrontierDelta(mark)
			} else {
				fresh = w.Optimizer.Frontier()
			}
			mu.Lock()
			defer mu.Unlock()
			for _, p := range fresh {
				if archive.Add(p) {
					improved = true
				}
			}
			return improved
		}
		merge := func() {
			improved := add()
			if cfg.Observe == nil {
				return
			}
			// Iterations and Elapsed are sampled under cbMu so the
			// serialized event stream stays monotonic across workers.
			cbMu.Lock()
			defer cbMu.Unlock()
			cfg.Observe(Event{
				Iterations: int(total.Load()),
				Elapsed:    time.Since(start), //rmq:allow-detrand(Elapsed telemetry only; never steers the search)
				Improved:   improved,
				snapshot:   snapshot,
			})
		}
		// Without an observer nobody can see intermediate merges, so
		// skip the per-step archive work entirely and merge once at
		// the end — the merged result is then identical (the final
		// frontier is all a worker contributes) but the hot loop pays
		// no per-step dominance checks or mutex traffic.
		sinceMerge := 0
		steps := Drive(ctx, w.Optimizer, cfg.MaxIterations, func(int) bool {
			sinceMerge++
			// Fault-injection site: a panic kind panics out of Check and
			// exercises the worker boundary above; an error kind aborts
			// just this worker, whose partial frontier still merges. The
			// site sits between steps, where the worker holds no locks,
			// so injected panics probe the recovery path without
			// depending on the defer-unlock hardening they ride past.
			if err := faultinject.Check("opt.worker.step"); err != nil {
				failMu.Lock()
				failures = append(failures, fmt.Errorf("opt: worker %d aborted: %w", idx, err))
				failMu.Unlock()
				return false
			}
			total.Add(1)
			if cfg.Observe != nil && sinceMerge >= mergeEvery {
				sinceMerge = 0
				merge()
			}
			return true
		})
		// A final merge covers the steps since the last observed one —
		// the whole run when no observer is configured, and the warm
		// frontier Init may leave when no step ran.
		if sinceMerge > 0 || steps == 0 {
			merge()
		}
	}
	if len(cfg.Workers) == 1 {
		runWorker(0, cfg.Workers[0])
	} else {
		var wg sync.WaitGroup
		for i, w := range cfg.Workers {
			wg.Add(1)
			go func(i int, w Worker) {
				defer wg.Done()
				runWorker(i, w)
			}(i, w)
		}
		wg.Wait()
	}
	res := RunResult{
		Plans:      snapshot(),
		Iterations: int(total.Load()),
		Elapsed:    time.Since(start), //rmq:allow-detrand(Elapsed telemetry only; never steers the search)
	}
	failMu.Lock()
	defer failMu.Unlock()
	return res, errors.Join(failures...)
}
