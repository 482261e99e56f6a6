// Command vmbench regenerates the paper's evaluation (§5): Figure 2
// (optimization time vs number of views in four configurations), Figure 3
// (total increase vs time inside the view-matching rule), Figure 4 (final
// plans using materialized views), and the in-text filtering statistics.
//
// Usage:
//
//	vmbench -experiment fig2|fig3|fig4|stats|all [-views N] [-queries N] [-seed S] [-step N]
//	        [-workers N] [-cpuprofile FILE] [-memprofile FILE]
//	vmbench -experiment advisor [-sf F] [-seed S] [-clients N] [-phase-a D] [-phase-b D]
//	        [-out FILE]
//
// -workers fans each measurement's queries out over N optimizer goroutines
// (0 = GOMAXPROCS, 1 = serial as in the paper); plan choices and aggregate
// statistics are unaffected, only wall-clock time changes. -cpuprofile and
// -memprofile write pprof profiles of the run.
//
// Throughput, latency and per-layer cost of the running system are measured
// by the repository's benchmark, `bash bench/run.sh` (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"matview/internal/harness"
)

func main() {
	experiment := flag.String("experiment", "all", "fig2, fig3, fig4, stats, advisor, or all")
	views := flag.Int("views", 1000, "maximum number of materialized views")
	queries := flag.Int("queries", 1000, "number of queries per measurement")
	seed := flag.Int64("seed", 1, "workload seed")
	step := flag.Int("step", 100, "view-count step for the sweep")
	workers := flag.Int("workers", 1, "optimizer goroutines per measurement (0 = GOMAXPROCS, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	verbose := flag.Bool("v", false, "print per-point progress")
	clients := flag.Int("clients", 8, "advisor: concurrent client goroutines")
	sf := flag.Float64("sf", 0.01, "advisor: TPC-H scale factor for the in-process server")
	phaseA := flag.Duration("phase-a", 8*time.Second, "advisor: pre-shift phase duration")
	phaseB := flag.Duration("phase-b", 16*time.Second, "advisor: post-shift phase duration")
	outFile := flag.String("out", "", "advisor: write the JSON report to this file")
	flag.Parse()

	if *experiment == "advisor" {
		check(runAdvisor(*sf, *seed, *clients, *phaseA, *phaseB, *outFile))
		return
	}

	cfg := harness.DefaultConfig(*seed)
	cfg.NumViews = *views
	cfg.NumQueries = *queries
	cfg.Workers = *workers
	if cfg.Workers == 0 {
		cfg.Workers = -1 // harness: negative selects GOMAXPROCS
	}
	cfg.ViewCounts = nil
	for n := 0; n <= *views; n += *step {
		cfg.ViewCounts = append(cfg.ViewCounts, n)
	}

	effectiveWorkers := cfg.Workers
	if effectiveWorkers < 0 {
		effectiveWorkers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("Workload: %d views, %d queries, seed %d, %d worker(s) (TPC-H catalog, SF %.1f)\n\n",
		cfg.NumViews, cfg.NumQueries, *seed, effectiveWorkers, cfg.ScaleFactor)
	h := harness.New(cfg)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			f.Close()
		}()
	}

	var progress *os.File
	if *verbose {
		progress = os.Stderr
	}

	switch *experiment {
	case "fig2":
		ms, err := h.RunFigure2(progress)
		check(err)
		harness.ReportFigure2(os.Stdout, ms)
	case "fig3":
		ms, err := h.RunFigure34(progress)
		check(err)
		harness.ReportFigure3(os.Stdout, ms)
	case "fig4":
		ms, err := h.RunFigure34(progress)
		check(err)
		harness.ReportFigure4(os.Stdout, ms)
	case "stats":
		ms, err := h.RunFigure34(progress)
		check(err)
		harness.ReportStats(os.Stdout, ms)
	case "all":
		ms2, err := h.RunFigure2(progress)
		check(err)
		harness.ReportFigure2(os.Stdout, ms2)
		fmt.Println()
		// Reuse the Alt&Filter series for Figures 3–4 and the stats.
		var full []harness.Measurement
		for _, m := range ms2 {
			if m.Setting == "Alt&Filter" {
				full = append(full, m)
			}
		}
		harness.ReportFigure3(os.Stdout, full)
		fmt.Println()
		harness.ReportFigure4(os.Stdout, full)
		fmt.Println()
		harness.ReportStats(os.Stdout, full)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmbench:", err)
		os.Exit(1)
	}
}
