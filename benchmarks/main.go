// Command benchmarks is the AGS benchmark: four workloads through the real
// pipeline, timed from outside with noise-filtering estimators, their outputs
// checked, and (in the traced pass) split layer by layer. See README.md.
//
//	go run -C benchmarks . --workload desk_ags --seed 1 --seconds 16 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
// the traced pass, --trace 2 both. The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}. The exit code is
// non-zero when any correctness check or frame failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmarks", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the sensor noise added to the generated frames")
	seconds := fs.Float64("seconds", 16, "seconds of timed repetitions to run")
	traceMode := fs.Int("trace", 2, "0: end-to-end metrics, 1: traced pass and per-layer metrics, 2: both")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode < 0 || *traceMode > 2 || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmarks: --trace is 0, 1 or 2 and --seconds is positive")
		return 2
	}
	run := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmarks: unknown workload %q\n", *name)
			return 2
		}
		run = []workload{*w}
	}

	o := options{seed: *seed, seconds: *seconds, timed: *traceMode != 1, traced: *traceMode != 0, setupReps: 7}
	return runAll(run, o, "out", stdout, stderr)
}

// runAll runs the workloads one after another, writes the traced pass's spans
// to outDir/trace.json, and returns the exit code: 1 if any workload failed a
// check or a frame.
func runAll(run []workload, o options, outDir string, stdout, stderr io.Writer) int {
	tr := newTracer()
	code := 0
	for i := range run {
		w := &run[i]
		fmt.Fprintf(stdout, "== %s (seed %d): %s\n", w.name, o.seed, w.why)
		rep := runWorkload(w, o, tr, stdout)
		printReport(stdout, rep)
		if !rep.Correct {
			code = 1
		}
	}
	if o.traced {
		if err := tr.write(outDir); err != nil {
			fmt.Fprintln(stderr, "benchmarks: writing trace:", err)
			code = 1
		}
	}
	return code
}

// printReport prints every metric by name with its unit, then the report as
// one JSON line.
func printReport(w io.Writer, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%-40s %16.6f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "frames attempted %d, failures %d (%.4f)\n", rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted))
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // a report holds only finite numbers and strings
	}
	fmt.Fprintf(w, "%s\n", line)
}
