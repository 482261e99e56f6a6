package main

import "fmt"

// The names below are the benchmark's vocabulary: BENCHMARK.json declares
// exactly these workloads and metrics, and bench_test.go holds the two in
// step.

var workloadNames = []string{"optimize_1000v", "serve_hot", "analytic_base", "write_maintain"}

// decl declares one metric. Bound is set on end-to-end metrics only: the
// share of the parent's median by which the metric may worsen. Every bound
// is the widest the benchmark contract allows, because a bound has to be
// about three times the spread between runs of one commit, and on the shared
// two-core box this was written on that spread is 4–16 % in quiet phases and
// more in noisy ones (README.md has the measurements). Moves says,
// for a per-layer metric, which end-to-end metric on which workload it is
// expected to move — written down before anything was measured.
type decl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

var endToEnd = []decl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

const (
	onOptimize = "lat_p50_ms, ops_per_s on optimize_1000v only"
	onServe    = "lat_p50_ms, ops_per_s on serve_hot; read_p50_ms on write_maintain; flat on analytic_base"
	onAnalytic = "lat_p50_ms, lat_p95_ms, ops_per_s on analytic_base only (and maintain.* on write_maintain)"
	onWrite    = "ops_per_s, lat_p50_ms, lat_p95_ms, recover_s on write_maintain only"
	onAll      = "diagnostic on every workload"
)

var perLayer = []decl{
	// Defined on one workload only, or always 0, so they cannot carry a
	// bound under the one-list-for-all-workloads contract; same names as in
	// the issue.
	{Name: "fail_frac", Unit: "ratio", Better: "lower", Moves: "must be 0 on every workload"},
	{Name: "views_used_frac", Unit: "ratio", Better: "higher", Moves: "optimize_1000v (Figure 4); repeats exactly"},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Moves: "write_maintain reader"},
	{Name: "read_p95_ms", Unit: "ms", Better: "lower", Moves: "write_maintain reader; checkpoint and write-lock stalls"},
	{Name: "recover_s", Unit: "s", Better: "lower", Moves: "write_maintain recovery"},

	{Name: "core.query_keys_us", Unit: "us", Better: "lower", Moves: onOptimize},
	{Name: "core.match_us", Unit: "us", Better: "lower", Moves: onOptimize},
	{Name: "core.match_success_frac", Unit: "ratio", Better: "higher", Moves: onOptimize},
	{Name: "filtertree.lookup_us", Unit: "us", Better: "lower", Moves: onOptimize},
	{Name: "filtertree.candidates_per_lookup", Unit: "count", Better: "lower", Moves: onOptimize},
	{Name: "filtertree.candidate_frac", Unit: "ratio", Better: "lower", Moves: onOptimize},
	{Name: "filtertree.insert_us", Unit: "us", Better: "lower", Moves: "setup_s on optimize_1000v"},
	{Name: "opt.invocations_per_query", Unit: "count", Better: "lower", Moves: onOptimize},
	{Name: "opt.candidates_per_query", Unit: "count", Better: "lower", Moves: onOptimize},
	{Name: "opt.substitutes_per_query", Unit: "count", Better: "higher", Moves: onOptimize},
	{Name: "opt.viewmatch_time_frac", Unit: "ratio", Better: "lower", Moves: onOptimize},
	{Name: "opt.optimize0_p50_us", Unit: "us", Better: "lower", Moves: onOptimize},
	{Name: "opt.increase_pct", Unit: "%", Better: "lower", Moves: onOptimize},
	{Name: "opt.register_view_us", Unit: "us", Better: "lower", Moves: "setup_s on optimize_1000v"},

	{Name: "server.handler_us", Unit: "us", Better: "lower", Moves: onServe},
	{Name: "sqlparser.fingerprint_us", Unit: "us", Better: "lower", Moves: onServe},
	{Name: "server.plancache_get_ns", Unit: "ns", Better: "lower", Moves: onServe},
	{Name: "storage.snapshot_ns", Unit: "ns", Better: "lower", Moves: onServe},
	{Name: "exec.view_seek_us", Unit: "us", Better: "lower", Moves: onServe},
	{Name: "server.encode_us", Unit: "us", Better: "lower", Moves: onServe + "; visible on analytic_base range_scan"},
	{Name: "server.other_us", Unit: "us", Better: "lower", Moves: onServe},
	{Name: "server.plan_miss_us", Unit: "us", Better: "lower", Moves: "setup_s on serve_hot"},
	{Name: "sqlparser.parse_us", Unit: "us", Better: "lower", Moves: "setup_s on serve_hot"},
	{Name: "opt.optimize_us", Unit: "us", Better: "lower", Moves: "setup_s on serve_hot"},
	{Name: "server.plancache_hit_frac", Unit: "ratio", Better: "higher", Moves: onServe},

	{Name: "exec.scan_agg_w1_ms", Unit: "ms", Better: "lower", Moves: onAnalytic},
	{Name: "exec.scan_agg_wmax_ms", Unit: "ms", Better: "lower", Moves: onAnalytic},
	{Name: "exec.range_scan_w1_ms", Unit: "ms", Better: "lower", Moves: onAnalytic},
	{Name: "exec.range_scan_wmax_ms", Unit: "ms", Better: "lower", Moves: onAnalytic},
	{Name: "exec.join3_w1_ms", Unit: "ms", Better: "lower", Moves: onAnalytic},
	{Name: "exec.join3_wmax_ms", Unit: "ms", Better: "lower", Moves: onAnalytic},
	{Name: "exec.agg_join_w1_ms", Unit: "ms", Better: "lower", Moves: onAnalytic},
	{Name: "exec.agg_join_wmax_ms", Unit: "ms", Better: "lower", Moves: onAnalytic},
	{Name: "exec.wmax", Unit: "count", Better: "higher", Moves: "worker count behind the wmax columns"},
	{Name: "exec.blocks_skipped_frac", Unit: "ratio", Better: "higher", Moves: onAnalytic},
	{Name: "exec.rows_probed_per_op", Unit: "count", Better: "lower", Moves: onAnalytic},
	{Name: "exec.probe_hit_frac", Unit: "ratio", Better: "higher", Moves: onAnalytic},
	{Name: "exec.rows_gathered_per_op", Unit: "count", Better: "lower", Moves: onAnalytic},
	{Name: "exec.agg_join_ns_per_probed_row", Unit: "ns", Better: "lower", Moves: onAnalytic},

	{Name: "sqlparser.parse_dml_us", Unit: "us", Better: "lower", Moves: onWrite},
	{Name: "maintain.insert_ms_0views", Unit: "ms", Better: "lower", Moves: onWrite},
	{Name: "maintain.insert_ms_8views", Unit: "ms", Better: "lower", Moves: onWrite},
	{Name: "maintain.delete_ms_0views", Unit: "ms", Better: "lower", Moves: onWrite},
	{Name: "maintain.delete_ms_8views", Unit: "ms", Better: "lower", Moves: onWrite},
	{Name: "maintain.delta_ms_per_view", Unit: "ms", Better: "lower", Moves: onWrite},
	{Name: "maintain.stale_views", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "storage.commit_us", Unit: "us", Better: "lower", Moves: onWrite},
	{Name: "storage.cow_mb_per_stmt", Unit: "MB", Better: "lower", Moves: onWrite},
	{Name: "storage.live_versions", Unit: "count", Better: "lower", Moves: onWrite},
	{Name: "storage.gc_reclaimed", Unit: "count", Better: "higher", Moves: onWrite},
	{Name: "wal.commit_us", Unit: "us", Better: "lower", Moves: onWrite},
	{Name: "wal.bytes_per_stmt", Unit: "B", Better: "lower", Moves: onWrite},
	{Name: "wal.fsyncs_per_stmt", Unit: "count", Better: "lower", Moves: onWrite},
	{Name: "wal.checkpoints", Unit: "count", Better: "higher", Moves: "at least 5 in the window"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower", Moves: "read_p95_ms, lat_p95_ms on write_maintain"},
	{Name: "wal.checkpoint_mb", Unit: "MB", Better: "lower", Moves: "recover_s on write_maintain"},
	{Name: "wal.checkpoint_load_ms", Unit: "ms", Better: "lower", Moves: "recover_s on write_maintain"},
	{Name: "wal.replay_us_per_record", Unit: "us", Better: "lower", Moves: "recover_s on write_maintain"},
	{Name: "server.exec_other_us", Unit: "us", Better: "lower", Moves: onWrite},
	{Name: "server.read_plancache_hit_frac", Unit: "ratio", Better: "higher", Moves: "read_p50_ms on write_maintain"},

	{Name: "process.alloc_mb_per_op", Unit: "MB", Better: "lower", Moves: onAll},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower", Moves: onAll},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower", Moves: onAll},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: onAll},
}

func findDecl(name string) *decl {
	for _, list := range [][]decl{endToEnd, perLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// metricValue is one measured metric as it goes on file: medians carry their
// quartiles and sample count so later bounds can be derived from the
// recorded spread.
type metricValue struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
	Note  string   `json:"note,omitempty"`
}

// result is one (workload, trace mode) run.
type result struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Clients   map[string]int         `json:"clients"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(workload string, trace bool) *result {
	return &result{Workload: workload, Trace: trace, Clients: map[string]int{}, Metrics: map[string]metricValue{}}
}

// set records a metric under a declared name; an undeclared name is a bug in
// the benchmark, not in the program it measures.
func (r *result) set(name string, v float64) {
	d := findDecl(name)
	if d == nil {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
}

func (r *result) setSummary(name string, s summary, note string) {
	r.set(name, s.value)
	m := r.Metrics[name]
	m.N, m.Q1, m.Q3, m.Note = s.n, &s.q1, &s.q3, note
	r.Metrics[name] = m
}

// setNs records the median of nanosecond samples in the metric's own unit.
func (r *result) setNs(name string, ns []float64) {
	if len(ns) == 0 {
		return
	}
	scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[findDecl(name).Unit]
	s := summarize(ns)
	s.value, s.q1, s.q3 = s.value/scale, s.q1/scale, s.q3/scale
	r.setSummary(name, s, "")
}

// check counts one verified answer; a wrong one is a failed operation.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Problems) < 20 {
			r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
		}
	}
}

// notDefined marks the placeholder a traced run emits for a per-layer metric
// that another workload defines.
const notDefined = "not defined on this workload"

// finish derives the verdict and fills in the per-layer metrics that are not
// defined on this workload with 0, because the contract wants every declared
// metric in every traced run.
func (r *result) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if r.Attempted > 0 {
		r.set("fail_frac", float64(r.Failed)/float64(r.Attempted))
	}
	if r.Trace {
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.Name]; !ok {
				r.Metrics[d.Name] = metricValue{Unit: d.Unit, Note: notDefined}
			}
		}
	}
}
