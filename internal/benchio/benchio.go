// Package benchio defines RMQ's machine-readable benchmark result
// format and the operations the performance workflow is built on:
// parsing standard `go test -bench` output into structured results,
// serializing them as versioned JSON reports (the BENCH_<date>.json
// files committed under bench/ and uploaded as CI artifacts), and
// diffing two reports under a regression threshold so CI can gate merges
// on ns/op and allocs/op regressions. cmd/benchreport is the command-line front end;
// the Makefile and .github/workflows/ci.yml consume the same schema.
package benchio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Schema identifies the report format; bump on incompatible changes.
const Schema = "rmq-bench/v1"

// Report is one benchmark run: environment metadata plus one entry per
// benchmark.
type Report struct {
	Schema    string `json:"schema"`
	Date      string `json:"date"` // RFC 3339
	Label     string `json:"label,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`
	CPU       string `json:"cpu,omitempty"`
	// Command records how the numbers were produced, for reproducibility.
	Command    string      `json:"command,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one measured benchmark. NsPerOp/BytesPerOp/AllocsPerOp
// mirror the standard testing outputs; Metrics carries custom
// b.ReportMetric units (e.g. the figure benches' "rmq-final-alpha-gm",
// the geometric-mean median α of a scenario group).
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkAblationClimb/fast".
	Name        string             `json:"name"`
	Runs        int                `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// ParseGoBench parses standard `go test -bench` output (including
// -benchmem columns and custom ReportMetric units), returning the
// benchmarks and the CPU model from the "cpu:" header line (empty if
// absent) — the hardware context a hardware-sensitive threshold
// comparison needs recorded. Non-benchmark lines are otherwise ignored,
// so raw test logs can be fed in unfiltered. Repeated -count runs of
// the same benchmark are averaged.
func ParseGoBench(r io.Reader) ([]Benchmark, string, error) {
	type acc struct {
		b Benchmark
		n int
	}
	var order []string
	cpu := ""
	byName := map[string]*acc{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if c, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(c)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, runs, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		runs, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		b := Benchmark{Name: stripProcs(fields[0]), Runs: runs}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		if !ok || b.NsPerOp == 0 {
			continue
		}
		a := byName[b.Name]
		if a == nil {
			byName[b.Name] = &acc{b: b, n: 1}
			order = append(order, b.Name)
			continue
		}
		a.b.Runs += b.Runs
		a.b.NsPerOp += b.NsPerOp
		a.b.BytesPerOp += b.BytesPerOp
		a.b.AllocsPerOp += b.AllocsPerOp
		for k, v := range b.Metrics {
			if a.b.Metrics == nil {
				a.b.Metrics = map[string]float64{}
			}
			a.b.Metrics[k] += v
		}
		a.n++
	}
	if err := sc.Err(); err != nil {
		return nil, "", fmt.Errorf("benchio: scan: %w", err)
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		a := byName[name]
		b := a.b
		if a.n > 1 {
			f := float64(a.n)
			b.NsPerOp /= f
			b.BytesPerOp /= f
			b.AllocsPerOp /= f
			for k := range b.Metrics {
				b.Metrics[k] /= f
			}
		}
		out = append(out, b)
	}
	return out, cpu, nil
}

// stripProcs removes the trailing -N GOMAXPROCS suffix from a benchmark
// name, so reports from machines with different core counts compare.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// WriteFile serializes the report as indented JSON.
func WriteFile(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("benchio: marshal: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a report, validating the schema tag.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchio: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("benchio: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// Delta is the comparison of one benchmark across two reports.
type Delta struct {
	Name string
	// Old and New are ns/op; Ratio is New/Old.
	Old, New, Ratio float64
	// AllocsOld and AllocsNew are allocs/op.
	AllocsOld, AllocsNew float64
	// NsRegressed and AllocsRegressed say which limit the benchmark
	// tripped; Regressed is their disjunction.
	NsRegressed, AllocsRegressed, Regressed bool
}

// Diff compares the benchmarks present in both reports (matched by
// name). A benchmark regresses when its ns/op grows by more than
// threshold (e.g. 0.2 = +20%), or when its allocs/op does: by more than
// the same fraction and by at least one whole allocation, so a
// benchmark that allocated nothing regresses on its first allocation
// per op, while sub-allocation noise of averaged -count runs does not.
// It returns the per-benchmark deltas sorted by ns/op ratio, worst
// first, and whether any regressed.
func Diff(old, new *Report, threshold float64) ([]Delta, bool) {
	byName := map[string]Benchmark{}
	for _, b := range new.Benchmarks {
		byName[b.Name] = b
	}
	var deltas []Delta
	regressed := false
	for _, ob := range old.Benchmarks {
		nb, ok := byName[ob.Name]
		if !ok || ob.NsPerOp == 0 {
			continue
		}
		d := Delta{
			Name:      ob.Name,
			Old:       ob.NsPerOp,
			New:       nb.NsPerOp,
			Ratio:     nb.NsPerOp / ob.NsPerOp,
			AllocsOld: ob.AllocsPerOp,
			AllocsNew: nb.AllocsPerOp,
		}
		d.NsRegressed = d.Ratio > 1+threshold
		d.AllocsRegressed = d.AllocsNew > d.AllocsOld*(1+threshold) && d.AllocsNew-d.AllocsOld >= 1
		d.Regressed = d.NsRegressed || d.AllocsRegressed
		regressed = regressed || d.Regressed
		deltas = append(deltas, d)
	}
	sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].Ratio > deltas[j].Ratio })
	return deltas, regressed
}

// GeomeanRatio returns the geometric mean of the deltas' ns/op ratios —
// the single-number summary of a comparison (1.00 = no aggregate
// change, below 1 = aggregate speedup). Non-positive ratios are skipped;
// it returns 0 when nothing contributes.
func GeomeanRatio(deltas []Delta) float64 {
	logSum, n := 0.0, 0
	for _, d := range deltas {
		if d.Ratio > 0 {
			logSum += math.Log(d.Ratio)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// FormatDeltas renders a fixed-width comparison table, closed by a
// geomean summary line. A regressed row is marked with the limit it
// tripped: "!! ns/op", "!! allocs/op" or both.
func FormatDeltas(deltas []Delta, threshold float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-52s %14s %14s %8s %15s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "allocs/op")
	for _, d := range deltas {
		var tripped []string
		if d.NsRegressed {
			tripped = append(tripped, "ns/op")
		}
		if d.AllocsRegressed {
			tripped = append(tripped, "allocs/op")
		}
		mark := ""
		if len(tripped) > 0 {
			mark = " !! " + strings.Join(tripped, " ")
		}
		line := fmt.Sprintf("%-52s %14.0f %14.0f %7.2fx %7.0f→%-7.0f%s",
			d.Name, d.Old, d.New, d.Ratio, d.AllocsOld, d.AllocsNew, mark)
		b.WriteString(strings.TrimRight(line, " "))
		b.WriteByte('\n')
	}
	if gm := GeomeanRatio(deltas); gm > 0 {
		fmt.Fprintf(&b, "geomean ns/op ratio: %.3fx over %d benchmarks\n", gm, len(deltas))
	}
	fmt.Fprintf(&b, "(regression thresholds: ns/op ratio > %.2f; allocs/op ratio > %.2f and ≥ 1 more alloc)\n", 1+threshold, 1+threshold)
	return b.String()
}
