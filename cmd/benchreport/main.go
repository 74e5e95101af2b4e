// Command benchreport runs, records and compares RMQ benchmarks in the
// machine-readable benchio JSON schema. It is the single entry point the
// Makefile and CI use, so local runs and the CI gate produce and consume
// identical files.
//
//	benchreport run    [-bench re] [-packages p] [-benchtime t] [-count n] [-timeout d] [-label s] [-out file]
//	benchreport import [-label s] [-out file] [input.txt]
//	benchreport diff   [-threshold f] old.json new.json
//
// run executes `go test -run ^$ -bench ... -benchmem` on the given
// packages, streams the raw output to stderr, and writes the parsed
// report to -out (default BENCH_<yyyy-mm-dd>.json). import parses
// already-captured `go test -bench` output (stdin or a file) into the
// same schema. diff compares two reports and exits non-zero if any
// benchmark present in both regressed by more than the threshold in
// ns/op or in allocs/op — that exit code is the CI gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"rmq/internal/benchio"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:])
	case "import":
		err = importCmd(os.Args[2:])
	case "diff":
		err = diffCmd(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchreport run    [-bench re] [-packages p] [-benchtime t] [-count n] [-timeout d] [-label s] [-out file]
  benchreport import [-label s] [-out file] [input.txt]
  benchreport diff   [-threshold f] old.json new.json`)
}

// defaultOut names the report after the current date, the BENCH_<date>
// convention the repository tracks performance trajectories under.
func defaultOut() string {
	return fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
}

func newReport(label, command, cpu string, bms []benchio.Benchmark) *benchio.Report {
	return &benchio.Report{
		Schema:     benchio.Schema,
		Date:       time.Now().Format(time.RFC3339),
		Label:      label,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpu,
		Command:    command,
		Benchmarks: bms,
	}
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	bench := fs.String("bench", ".", "benchmark regexp (go test -bench)")
	packages := fs.String("packages", "./...", "package pattern(s), space-separated")
	benchtime := fs.String("benchtime", "1x", "go test -benchtime value")
	count := fs.Int("count", 1, "go test -count value")
	timeout := fs.String("timeout", "60m", "go test -timeout value")
	label := fs.String("label", "", "free-form label stored in the report")
	out := fs.String("out", defaultOut(), "output JSON path")
	fs.Parse(args)

	cmdArgs := []string{"test", "-run", "^$", "-bench", *bench,
		"-benchmem", "-benchtime", *benchtime, "-timeout", *timeout}
	if *count > 1 {
		cmdArgs = append(cmdArgs, "-count", fmt.Sprint(*count))
	}
	cmdArgs = append(cmdArgs, strings.Fields(*packages)...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Stderr = os.Stderr

	var buf strings.Builder
	cmd.Stdout = io.MultiWriter(&buf, os.Stderr)
	fmt.Fprintln(os.Stderr, "benchreport: go", strings.Join(cmdArgs, " "))
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go test: %w", err)
	}
	bms, cpu, err := benchio.ParseGoBench(strings.NewReader(buf.String()))
	if err != nil {
		return err
	}
	if len(bms) == 0 {
		return fmt.Errorf("no benchmark results parsed (pattern %q)", *bench)
	}
	r := newReport(*label, "go "+strings.Join(cmdArgs, " "), cpu, bms)
	if err := benchio.WriteFile(*out, r); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchreport: wrote %s (%d benchmarks)\n", *out, len(bms))
	return nil
}

func importCmd(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	label := fs.String("label", "", "free-form label stored in the report")
	out := fs.String("out", defaultOut(), "output JSON path")
	fs.Parse(args)

	in := os.Stdin
	source := "stdin"
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
		source = fs.Arg(0)
	}
	bms, cpu, err := benchio.ParseGoBench(in)
	if err != nil {
		return err
	}
	if len(bms) == 0 {
		return fmt.Errorf("no benchmark results parsed from %s", source)
	}
	r := newReport(*label, "import "+source, cpu, bms)
	if err := benchio.WriteFile(*out, r); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchreport: wrote %s (%d benchmarks)\n", *out, len(bms))
	return nil
}

func diffCmd(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.2, "ns/op and allocs/op regression threshold (0.2 = +20%)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff needs exactly two report files, got %d", fs.NArg())
	}
	old, err := benchio.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := benchio.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	deltas, regressed := benchio.Diff(old, cur, *threshold)
	if len(deltas) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", fs.Arg(0), fs.Arg(1))
	}
	fmt.Print(benchio.FormatDeltas(deltas, *threshold))
	if regressed {
		return fmt.Errorf("ns/op or allocs/op regression beyond +%.0f%%", *threshold*100)
	}
	fmt.Println("no regressions")
	return nil
}
