// Command bench is the repository's benchmark: four seeded closed-loop
// workloads over the real stack, each checked against an oracle, with
// end-to-end metrics from an untraced run and per-layer metrics from a traced
// one. See README.md for why each workload exists and how to read the output.
//
//	bash bench/run.sh --workload serve_hot --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                       # every workload, untraced then traced
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scale sizes the inputs. The benchmark always runs at fullScale; smokeScale
// exists so bench_test.go can drive every code path in seconds.
type scale struct {
	views, queries int     // optimize_1000v
	sfServe        float64 // serve_hot
	points, ranges int     // serve_hot statement pool
	sfAnalytic     float64 // analytic_base
	sfWrite        float64 // write_maintain
	tail           int     // write_maintain: DML statements between checkpoint and crash
	setupReps      int     // set-ups per untraced run; setup_s is their median
	layerReps      int     // repetitions of each per-layer measurement
}

var (
	fullScale  = scale{views: 1000, queries: 1000, sfServe: 0.01, points: 192, ranges: 64, sfAnalytic: 0.05, sfWrite: 0.01, tail: 200, setupReps: 3, layerReps: 5}
	smokeScale = scale{views: 50, queries: 50, sfServe: 0.002, points: 24, ranges: 8, sfAnalytic: 0.002, sfWrite: 0.002, tail: 12, setupReps: 1, layerReps: 1}
)

// runConfig is one (workload, trace mode) run.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	outDir   string
	scale    scale
}

// clients is how many client goroutines a workload may use at most: never
// more than the cores the process was given.
func clients(want int) int {
	if p := runtime.GOMAXPROCS(0); want > p {
		return p
	}
	return want
}

var workloads = map[string]func(runConfig, *result) error{
	"optimize_1000v": runOptimize,
	"serve_hot":      runServeHot,
	"analytic_base":  runAnalytic,
	"write_maintain": runWriteMaintain,
}

func runWorkload(cfg runConfig) (*result, error) {
	r := newResult(cfg.workload, cfg.trace)
	if err := workloads[cfg.workload](cfg, r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.set("process.peak_rss_mb", peakRSSMB())
	r.finish()
	return r, nil
}

// timeSetups runs setup and returns the state it built. An untraced run
// repeats it scale.setupReps times — and, when set-ups are cheap, up to seven
// times within three seconds — and records the median as setup_s: one set-up
// per run is a single sample of a step that allocates most of the heap, and
// it swings. discard, if set, releases a state that a later repetition
// replaces.
func timeSetups[T any](r *result, cfg runConfig, setup func() (T, error), discard func(T)) (T, error) {
	reps := cfg.scale.setupReps
	if cfg.trace {
		reps = 1
	}
	var state T
	var secs []float64
	total := 0.0
	for i := 0; i < reps || reps > 1 && i < 7 && total < 3; i++ {
		if i > 0 && discard != nil {
			discard(state)
		}
		var zero T
		state = zero
		runtime.GC()
		t := time.Now()
		var err error
		if state, err = setup(); err != nil {
			return state, err
		}
		secs = append(secs, time.Since(t).Seconds())
		total += secs[i]
	}
	r.setSummary("setup_s", summarize(secs), "")
	return state, nil
}

// processCounters reads what the Go runtime counts for the whole process.
type processCounters struct {
	alloc   uint64
	pauseNs uint64
}

func readProcess() processCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return processCounters{alloc: m.TotalAlloc, pauseNs: m.PauseTotalNs}
}

func (r *result) setProcess(before processCounters, ops int) {
	after := readProcess()
	if ops > 0 {
		r.set("process.alloc_mb_per_op", float64(after.alloc-before.alloc)/1e6/float64(ops))
	}
	r.set("process.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6)
}

func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// record is what every output file says about the run itself.
type record struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
}

// runFile is the result file: the run record, one entry per workload with
// the untraced and the traced run's metrics merged, and no claim.
type runFile struct {
	Record    record             `json:"record"`
	Workloads map[string]*result `json:"workloads"`
	Claim     *string            `json:"claim"`
}

// merge folds a second run of a workload into the first, so one file row
// carries the untraced run's numbers plus whatever only the traced run
// measured.
func (f *runFile) merge(r *result) {
	have := f.Workloads[r.Workload]
	if have == nil {
		f.Workloads[r.Workload] = r
		return
	}
	for name, m := range r.Metrics {
		if _, ok := have.Metrics[name]; !ok && m.Note != notDefined {
			have.Metrics[name] = m
		}
	}
	have.Attempted += r.Attempted
	have.Failed += r.Failed
	have.Correct = have.Correct && r.Correct
	have.Problems = append(have.Problems, r.Problems...)
	have.set("fail_frac", float64(have.Failed)/float64(have.Attempted))
}

// stdoutLine is the contract's last line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func stdoutLine(r *result) string {
	list := endToEnd
	if r.Trace {
		list = perLayer
	}
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]vu{}}
	for _, d := range list {
		out.Metrics[d.Name] = vu{r.Metrics[d.Name].Value, d.Unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// printTable prints every measured metric by name with its unit, sample
// count and, where it has one, its regression bound.
func printTable(r *result) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("\n== %s (%s)  clients=%v attempted=%d failed=%d correct=%v\n", r.Workload, mode, r.Clients, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for name, m := range r.Metrics {
		if m.Note != notDefined {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%-7d", m.N)
		}
		if m.Q1 != nil {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g", *m.Q1, *m.Q3)
		}
		if d := findDecl(name); d.Bound > 0 {
			line += fmt.Sprintf("  may worsen by %.0f%%", d.Bound*100)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
	}
	for _, p := range r.Problems {
		fmt.Println("  PROBLEM:", p)
	}
}

func main() {
	workload := flag.String("workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
	out := flag.String("out", "", "directory for the result JSON and span files (default: a fresh temp dir)")
	compare := flag.Bool("compare", false, "compare two result files: -compare parent.json change.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare parent.json change.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	traces := []bool{*trace == 1}
	if *trace < 0 {
		traces = []bool{false, true}
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, 4))
	if *out == "" {
		dir, err := os.MkdirTemp("", "mvbench-out-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		*out = dir
	} else if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	file := runFile{
		Record: record{NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit, Seed: *seed, Seconds: *seconds},
		Workloads: map[string]*result{},
	}
	var lines []string
	correct := true
	for _, name := range names {
		for _, tr := range traces {
			r, err := runWorkload(runConfig{workload: name, seed: *seed, trace: tr, outDir: *out,
				window: time.Duration(*seconds * float64(time.Second)), scale: fullScale})
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			printTable(r)
			lines = append(lines, stdoutLine(r))
			correct = correct && r.Correct
			file.merge(r)
		}
	}
	path := filepath.Join(*out, "result.json")
	b, err := json.MarshalIndent(&file, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("\nresults: %s\n", path)
	for _, l := range lines {
		fmt.Println(l)
	}
	if !correct {
		os.Exit(1)
	}
}
