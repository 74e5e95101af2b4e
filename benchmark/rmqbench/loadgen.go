package main

import (
	"sync"
	"time"
)

// op is one timed operation: a served request, a library query or a
// restart cycle. The function performing it sets begin and end around
// the part a user waits for (verification happens after end) and fills
// in what it measured; the load generator sets lat, late and cal.
type op struct {
	kind   string // "warm", "cold", "query" or "cycle"
	key    uint64 // request seed: the trace key of the operation's spans
	traced bool
	err    error

	begin, end time.Time
	call       time.Duration // client call (serve) or Session.Optimize (library)
	run        time.Duration // opt.Run wall time (Frontier.Elapsed / elapsed_ms)
	encode     time.Duration // restart: Session.Snapshot
	restore    time.Duration // restart: NewSession + Restore
	iterations int
	plans      int
	eps        float64 // ε against the operation's reference frontier; 0 = none

	lat  time.Duration // what the user waited: from due time (open loop) or begin
	late time.Duration // open loop: how late the generator dispatched it
	cal  time.Duration // the calibration time at the quiet point after the operation
}

// quietEvery is how often a timed loop stops at a quiet point, with no
// operation in flight, to calibrate (see calib.go).
const quietEvery = 500 * time.Millisecond

// quietPoint calibrates for the operations since the last quiet point.
func quietPoint(ops []op) {
	cal := calibrate()
	for i := range ops {
		ops[i].cal = cal
	}
}

// openLoop issues rate·dur operations on a fixed schedule, operation i
// due at start + i/rate, whether or not earlier ones have completed.
// At most workers operations run at once; one due while all workers are
// busy waits for a free one, and that wait counts in its latency, which
// runs from the due time. late records how far behind schedule the
// generator itself handed each operation out. After every quietEvery of
// schedule the loop lets the operations in flight finish, stops at a
// quiet point and resumes the schedule after it.
func openLoop(rate float64, dur time.Duration, workers, first int, do func(i int) op) []op {
	n := int(rate * dur.Seconds())
	per := max(1, int(rate*quietEvery.Seconds()))
	ops := make([]op, n)
	for lo := 0; lo < n; lo += per {
		part := ops[lo:min(lo+per, n)]
		openSegment(rate, part, workers, first+lo, do)
		quietPoint(part)
	}
	return ops
}

func openSegment(rate float64, ops []op, workers, first int, do func(i int) op) {
	dueAt := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
	queue := make(chan int, len(ops)) // one slot per operation: dispatch never waits on busy workers
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				late := ops[i].late
				ops[i] = do(first + i)
				ops[i].late = late
				ops[i].lat = ops[i].end.Sub(start.Add(dueAt(i)))
			}
		}()
	}
	for i := range ops {
		due := start.Add(dueAt(i))
		time.Sleep(time.Until(due))
		ops[i].late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
}

// loopTime is how long a closed loop ran, quiet points excluded: as
// measured, and normalized segment by segment (see normalize).
type loopTime struct {
	wall, norm time.Duration
}

// closedLoop runs workers callers, each issuing its next operation as
// soon as the previous one returns, until dur has passed at a multiple
// of batch operations issued: a single caller always completes whole
// batches, at least one. After every quietEvery the callers finish
// their operations and the loop stops at a quiet point; the time spent
// there does not count towards dur. It returns the operations and the
// time the loop ran.
func closedLoop(dur time.Duration, workers, first, batch int, do func(i int) op) ([]op, loopTime) {
	var (
		mu      sync.Mutex
		issued  int
		done    bool
		ops     []op
		elapsed loopTime
	)
	for !done {
		start, segFirst := time.Now(), issued
		// claim hands out the next operation index, or reports that this
		// segment or the whole loop is over.
		claim := func() (int, bool) {
			mu.Lock()
			defer mu.Unlock()
			since := time.Since(start)
			if issued > 0 && issued%batch == 0 && elapsed.wall+since >= dur {
				done = true
			}
			if done || (issued > segFirst && since >= quietEvery) {
				return 0, false
			}
			issued++
			return issued - 1, true
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []op
				for i, ok := claim(); ok; i, ok = claim() {
					o := do(first + i)
					o.lat = o.end.Sub(o.begin)
					mine = append(mine, o)
				}
				mu.Lock()
				ops = append(ops, mine...)
				mu.Unlock()
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		if issued == segFirst {
			break
		}
		part := ops[len(ops)-(issued-segFirst):]
		quietPoint(part)
		elapsed.wall += wall
		elapsed.norm += normalize(wall, part[0].cal)
	}
	return ops, elapsed
}
