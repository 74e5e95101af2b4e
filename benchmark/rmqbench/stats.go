package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples: the smallest sample with at least p% of all samples at or
// below it. NaN for no samples. The input is not modified.
func percentile(samples []float64, p int) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	rank := (p*n + 99) / 100 // ceil(p·n/100) without float rounding
	return sorted[min(max(rank, 1), n)-1]
}

// median is the middle sample, or the mean of the middle two.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(values)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(values, n=4) (the "exclusive" method),
// so spreads printed here match the ones computed from the same values
// elsewhere. A single value is its own quartiles.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return values[0], values[0]
	}
	s := slices.Clone(values)
	slices.Sort(s)
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// geomean is the geometric mean of positive values; NaN for none.
func geomean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocObjects, allocBytes, gcCycles uint64
	gcCPU, totalCPU                    float64
	gcPauses                           *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
		gcPauses:     s[5].Value.Float64Histogram(),
	}
}

// runtimeDelta is what the runtime did between two samples.
type runtimeDelta struct {
	allocObjects, allocBytes, gcCycles uint64
	gcCPUPct                           float64
	gcPauseP99                         time.Duration
}

func (end runtimeSample) since(start runtimeSample) runtimeDelta {
	d := runtimeDelta{
		allocObjects: end.allocObjects - start.allocObjects,
		allocBytes:   end.allocBytes - start.allocBytes,
		gcCycles:     end.gcCycles - start.gcCycles,
	}
	if cpu := end.totalCPU - start.totalCPU; cpu > 0 {
		d.gcCPUPct = 100 * (end.gcCPU - start.gcCPU) / cpu
	}
	// p99 of the GC pauses in the interval, as the upper edge of the
	// histogram bucket holding the nearest-rank sample.
	counts := make([]uint64, len(end.gcPauses.Counts))
	var total uint64
	for i, c := range end.gcPauses.Counts {
		counts[i] = c - start.gcPauses.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		rank := (99*total + 99) / 100
		var seen uint64
		for i, c := range counts {
			if seen += c; seen >= rank {
				hi := end.gcPauses.Buckets[i+1]
				if math.IsInf(hi, 1) {
					hi = end.gcPauses.Buckets[i]
				}
				d.gcPauseP99 = time.Duration(hi * float64(time.Second))
				break
			}
		}
	}
	return d
}

// liveHeapBytes collects garbage and reports the heap still reachable,
// less the calibration's data.
func liveHeapBytes() uint64 {
	live := heapLive()
	return live - min(calBytes, live)
}

func heapLive() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSBytes is the process's resident-set high-water mark.
func peakRSSBytes() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) * 1024 // KiB on Linux
}
