package main

import (
	"math/rand/v2"
	"slices"
	"sync"
	"time"
)

// A shared host does not run at one speed. On the 2-vCPU VM this
// benchmark was built on, a fixed computation runs 40–50% slower for
// stretches of 30–60 s every few minutes, with no steal time to show for
// it: CPU time grows with wall time. A run that falls in such a stretch
// reads slow from its fastest operation to its slowest, so no statistic
// over one run's operations removes it.
//
// Every timed loop therefore stops at quiet points, with no operation in
// flight, and times a fixed calibration computation there that uses none
// of the code under test. The end-to-end times divide each operation's
// time by the calibration time at its quiet point and scale the result
// to calNominal. A change in the code moves them as it moves the raw
// times, while a slow stretch of the host moves the calibration time
// along with them. The raw times are reported as detail.

// calNominal is the calibration time the normalized times are scaled
// to: about its median on the VM above outside slow stretches.
const calNominal = 10 * time.Millisecond

// normalize scales d, measured where the calibration took cal, to the
// speed at which it takes calNominal.
func normalize(d, cal time.Duration) time.Duration {
	if cal <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(calNominal) / float64(cal))
}

// calNodes sizes the calibration's data: 64k tree nodes, a
// map over their keys and two key slices, about 5 MB, more than a
// core's private caches hold.
const calNodes = 1 << 16

type calNode struct {
	left, right *calNode
	key         uint64
	val         float64
}

// calData is built once, so the calibration allocates next to
// nothing. One that allocated would pay for collecting the workload's
// heap and time the garbage collector instead of the machine.
type calData struct {
	order []*calNode // every node, in random order
	index map[uint64]*calNode
	keys  []uint64

	// Per concurrent copy: its sort buffer, time and result.
	scratch [][]uint64
	times   []time.Duration
	sums    []float64
}

var (
	calOnce  sync.Once
	calState calData
	calBytes uint64  // live heap the calibration's data takes
	calSink  float64 // keeps the computation from being optimized away
)

func buildCal() {
	before := heapLive()
	defer func() {
		if after := heapLive(); after > before {
			calBytes = after - before
		}
	}()
	rng := rand.New(rand.NewPCG(0x9e3779b97f4a7c15, 1))
	c := &calState
	c.order = make([]*calNode, calNodes)
	c.index = make(map[uint64]*calNode, calNodes)
	c.keys = make([]uint64, calNodes)
	for i := range c.order {
		n := &calNode{key: rng.Uint64(), val: rng.Float64()}
		c.order[i], c.index[n.key], c.keys[i] = n, n, n.key
		if i > 0 {
			parent := c.order[rng.IntN(i)]
			if parent.left == nil {
				parent.left = n
			} else if parent.right == nil {
				parent.right = n
			}
		}
	}
	rng.Shuffle(len(c.order), func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })
	copies := nproc()
	c.scratch = make([][]uint64, copies)
	for i := range c.scratch {
		c.scratch[i] = make([]uint64, calNodes)
	}
	c.times, c.sums = make([]time.Duration, copies), make([]float64, copies)
}

// calibrate runs one copy of the calibration computation per processor,
// all at once, and returns the mean time a copy took. The workloads'
// operations and the garbage collector spread over every processor, and
// on a shared host one of them can slow down without the other. It
// must not run concurrently with itself, nor with the operations it
// calibrates.
func calibrate() time.Duration {
	calOnce.Do(buildCal)
	c := &calState
	var wg sync.WaitGroup
	for i := range c.scratch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			c.sums[i] = calibrationRun(c.scratch[i])
			c.times[i] = time.Since(start)
		}()
	}
	wg.Wait()
	var total time.Duration
	for i, t := range c.times {
		total += t
		calSink += c.sums[i]
	}
	return total / time.Duration(len(c.times))
}

// calibrationRun is one copy of the calibration computation: map
// lookups and short pointer chases from every node in random order,
// floating-point accumulation, and a sort of the keys into scratch. The
// optimizer's own work is of the same kinds.
func calibrationRun(scratch []uint64) float64 {
	c := &calState
	sum := 0.0
	for _, n := range c.order {
		m := c.index[n.key]
		for k := 0; m != nil && k < 4; k++ {
			sum = sum*0.999999 + m.val
			if m.key&1 == 0 {
				m = m.left
			} else {
				m = m.right
			}
		}
	}
	copy(scratch, c.keys)
	slices.Sort(scratch)
	return sum + float64(scratch[0]&1)
}
