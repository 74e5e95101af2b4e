// Command rmqbench is the end-to-end benchmark of the rmq optimizer and
// its rmqd serving path. It runs four workloads, measures what a user
// of each would see, checks every frontier it is served, and with
// -trace 1 breaks the time down by layer:
//
//   - serve-warm: open-loop warm traffic against an in-process rmqd
//     with a plan-cache memory budget, then a closed-loop capacity phase;
//   - serve-mixed: the same server without a budget, where one request
//     in five registers, optimizes and deletes a fresh catalog;
//   - large-cold: 100-table queries, each on a fresh library Session;
//   - restart: Snapshot, Restore into a fresh Session, first query.
//
// Usage, from the repository root (benchmark/run.sh builds and runs it):
//
//	rmqbench -workload serve-warm -seed 1 -seconds 20 -trace 0
//	rmqbench -seed 1 -out run.json       # all four, one child process each
//	rmqbench -write-reference            # recompute benchmark/testdata/reference.json
//	rmqbench compare A.json... -- B.json...
//
// A single-workload run prints every metric it measured by name, unit
// and sample count, and as its last line one JSON object with the keys
// correct, attempted, failed and metrics: the end_to_end metrics of
// BENCHMARK.json, or with -trace 1 its per_layer metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// resultPrefix marks the line carrying a child process's full result.
const resultPrefix = "rmqbench-result "

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	scale     string
	out       string
	spec      string
	reference string
	traceDir  string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process; empty runs all four, each in a child process")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of each workload's timed phase, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 traces the run and reports the per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "workload sizes: full, or smoke for a quick check")
	flag.StringVar(&o.out, "out", "", "also write the full results as JSON to this file")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition naming the reported metrics")
	flag.StringVar(&o.reference, "reference", "benchmark/testdata/reference.json", "reference frontiers of large-cold")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build", "directory traced runs write trace-<workload>.json to")
	writeRef := flag.Bool("write-reference", false, "recompute the reference frontiers into -reference and exit")
	flag.Parse()
	if err := run(o, *writeRef); err != nil {
		fmt.Fprintf(os.Stderr, "rmqbench: %v\n", err)
		os.Exit(1)
	}
}

func run(o options, writeRef bool) error {
	switch {
	case flag.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	case writeRef:
		return writeReference(o.reference)
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	case o.seconds <= 0:
		return fmt.Errorf("-seconds must be positive")
	}
	if _, ok := scales[o.scale]; !ok {
		return fmt.Errorf("unknown -scale %q", o.scale)
	}
	spec, err := loadSpec(o.spec)
	if err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(o)
	}
	r, err := runWorkload(o, o.workload)
	if err != nil {
		return err
	}
	line, err := contractLine(r, spec)
	if err != nil {
		return err
	}
	printResult(os.Stdout, r)
	detail, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", resultPrefix, detail)
	if o.out != "" {
		if err := writeResults(o.out, []*result{r}); err != nil {
			return err
		}
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runWorkload runs one workload in this process.
func runWorkload(o options, name string) (*result, error) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	c := &runCtx{seed: o.seed, seconds: time.Duration(o.seconds * float64(time.Second)), sc: scales[o.scale], refPath: o.reference}
	if o.trace == 1 {
		c.tr = newTracer()
		useTracer(c.tr)
		defer useTracer(nil)
	}
	d, err := workloads[i].run(c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var spans []span
	if c.tr != nil {
		spans = c.tr.snapshot()
		path, err := c.tr.write(o.traceDir, name, d)
		if err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d spans in %s\n", len(spans), path)
	}
	return buildResult(name, c, d, spans), nil
}

// runAll runs every workload in a child process of its own, so no
// memory or cache state carries over from one workload to the next.
func runAll(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var results []*result
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name,
			"-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(o.trace), "-scale", o.scale, "-spec", o.spec,
			"-reference", o.reference, "-trace-dir", o.traceDir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		var r *result
		sc := bufio.NewScanner(stdout)
		sc.Buffer(nil, 16<<20)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, resultPrefix); ok {
				r = &result{}
				if err := json.Unmarshal([]byte(rest), r); err != nil {
					r = nil
				}
				continue
			}
			fmt.Println(line)
		}
		scanErr := sc.Err()
		_, _ = io.Copy(io.Discard, stdout) // after a scan error: the child must not block on a full pipe
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		if scanErr != nil || r == nil {
			return fmt.Errorf("workload %s: no result (%v)", w.name, scanErr)
		}
		results = append(results, r)
	}
	if o.out != "" {
		return writeResults(o.out, results)
	}
	return nil
}

// printResult writes a run's metrics for people: one per line, by name.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s seed %d trace %v: %d attempted, %d failed, correct %v\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Correct)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  failure: %s\n", v)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
	PerLayer  []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// contractLine renders the last output line: correct, attempted, failed
// and the metrics BENCHMARK.json names for the run's mode, with its
// units. A metric the definition names but the run did not measure is
// an error, not a silent omission.
func contractLine(r *result, spec *benchSpec) ([]byte, error) {
	list := spec.EndToEnd
	if r.Trace {
		list = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		got, ok := r.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s did not measure %s", r.Workload, m.Name)
		}
		if got.Unit != m.Unit {
			return nil, fmt.Errorf("%s measured %s in %s, the definition says %s", r.Workload, m.Name, got.Unit, m.Unit)
		}
		metrics[m.Name] = value{got.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// resultsFile is the -out format, which compare reads back.
type resultsFile struct {
	Results []*result `json:"results"`
}

func writeResults(path string, results []*result) error {
	data, err := json.MarshalIndent(resultsFile{results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
