// Command ags-bench regenerates the paper's tables and figures.
//
// Experiments declare the (sequence, variant) runs they need; the batch
// scheduler executes the deduplicated union across -jobs workers, then
// renders every selected experiment in paper order from the warmed cache.
// stdout carries only experiment text (byte-identical for every -jobs
// value); progress lines go to stderr.
//
// Usage:
//
//	ags-bench                  # run every experiment at the quick scale
//	ags-bench -exp fig15a      # run one experiment
//	ags-bench -exp fig3,fig5   # run a subset
//	ags-bench -list            # list experiment IDs
//	ags-bench -scale full      # larger frames/iterations (slower)
//	ags-bench -jobs 4          # bounded pipeline-execution concurrency
//	ags-bench -frames 32 -w 96 -h 72   # override individual knobs
//	ags-bench -exp fig4 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ags/internal/bench"
)

func main() {
	var (
		expIDs  = flag.String("exp", "", "comma-separated experiment IDs to run (default: all)")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		scale   = flag.String("scale", "quick", "quick | full")
		width   = flag.Int("w", 0, "override frame width")
		height  = flag.Int("h", 0, "override frame height")
		frames  = flag.Int("frames", 0, "override frames per sequence")
		workers = flag.Int("workers", 0, "render worker goroutines (0 = all cores; results are bit-identical for every value)")
		jobs    = flag.Int("jobs", 0, "concurrent pipeline executions in the batch scheduler (0 = all cores; output is byte-identical for every value)")
		quiet   = flag.Bool("q", false, "suppress progress lines (stderr)")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole batch to this path")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (after the batch) to this path")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID(), e.Paper())
		}
		return
	}

	var cfg bench.Config
	switch *scale {
	case "quick":
		cfg = bench.Quick()
	case "full":
		cfg = bench.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (quick|full)\n", *scale)
		os.Exit(2)
	}
	if *width > 0 {
		cfg.Width = *width
	}
	if *height > 0 {
		cfg.Height = *height
	}
	if *frames > 0 {
		cfg.Frames = *frames
	}
	cfg.Workers = *workers

	exps := bench.Experiments()
	if *expIDs != "" {
		exps = exps[:0]
		for _, id := range strings.Split(*expIDs, ",") {
			e, err := bench.Find(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintf(os.Stderr, "ags-bench: %v\n", err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	// stopCPUProfile is called explicitly on both the success and error
	// paths: os.Exit skips defers, and a failing batch is exactly the run
	// whose profile must not be left unflushed.
	stopCPUProfile := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ags-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ags-bench: start cpu profile: %v\n", err)
			os.Exit(1)
		}
		stopCPUProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "ags-bench: close cpu profile: %v\n", err)
			}
		}
	}

	suite := bench.NewSuite(cfg)
	if !*quiet {
		suite.Log = os.Stderr
	}
	start := time.Now()

	err := bench.RunBatch(suite, exps, *jobs, os.Stdout)
	stopCPUProfile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ags-bench: %v\n", err)
		os.Exit(1)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ags-bench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // materialize the live-heap picture pprof reports
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ags-bench: write heap profile: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ags-bench: close heap profile: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Fprintf(os.Stderr, "\n# done in %s (scale=%s %dx%d, %d frames/sequence, %d runs)\n",
		time.Since(start).Round(time.Millisecond), *scale, cfg.Width, cfg.Height, cfg.Frames,
		len(suite.Executed()))
}
