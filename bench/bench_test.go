package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []declJSON                   `json:"end_to_end"`
	PerLayer  []declJSON                   `json:"per_layer"`
}

type declJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestDeclarationsMatchBenchmarkJSON holds the code's metric tables and the
// committed BENCHMARK.json in step: same workloads, same metrics, same units,
// directions and bounds, in the same order.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || !name.MatchString(w.Name) || workloads[w.Name] == nil {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []declJSON, want []decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the code", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, g.Name)
			}
			seen[g.Name] = true
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestSmokeWorkloads runs every workload at smoke scale, untraced and traced,
// and requires a correct run that emits exactly the declared metric names,
// and a span file in which every request's spans share an identifier and
// name their parent.
func TestSmokeWorkloads(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w, seed: 2, window: 500 * time.Millisecond, trace: trace, outDir: t.TempDir(), scale: smokeScale}
			r, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w, trace, r.Attempted, r.Failed, r.Problems)
			}
			var line struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(stdoutLine(r)), &line); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics on the result line, %d declared", w, trace, len(line.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", w, trace, d.Name, m.Unit)
				}
				if !trace && (m.Value <= 0 || r.Metrics[d.Name].N == 0) {
					t.Errorf("%s: end-to-end metric %s = %v with n=%d", w, d.Name, m.Value, r.Metrics[d.Name].N)
				}
			}
			if trace {
				if _, ok := r.Metrics["bench.trace_overhead_frac"]; !ok || r.Metrics["bench.trace_overhead_frac"].Note == notDefined {
					t.Errorf("%s: no trace overhead reported", w)
				}
				checkSpanFile(t, filepath.Join(cfg.outDir, "spans-"+w+".jsonl"))
			}
		}
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[int64]map[int64]bool{} // request → span ids seen
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if ids[s.Req] == nil {
			ids[s.Req] = map[int64]bool{}
		}
		ids[s.Req][s.ID] = true
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for _, s := range spans {
		if s.Name == "" || s.End < s.Start || s.Parent != 0 && !ids[s.Req][s.Parent] {
			t.Fatalf("%s: span %+v has no name, runs backwards, or names a parent its request does not have", path, s)
		}
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(s, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n           int
		value, used float64
	}{
		{1000, 950, 0.95}, // 50 beyond
		{200, 190, 0.95},  // exactly 10 beyond
		{100, 90, 0.90},   // only 5 beyond p95: falls back to p90
		{15, 8, 0.5},      // too few for any tail: the median
	} {
		value, used := tailPercentile(seq(c.n), 0.95)
		if value != c.value || math.Abs(used-c.used) > 1e-12 {
			t.Errorf("n=%d: got %v at p%v, want %v at p%v", c.n, value, used*100, c.value, c.used*100)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		children []interval
		want     int64
	}{
		{nil, 100},
		{[]interval{{10, 30}, {40, 50}}, 70},
		{[]interval{{10, 30}, {20, 50}}, 60},            // overlap counted once
		{[]interval{{90, 120}, {-5, 10}}, 80},           // clipped to the parent
		{[]interval{{0, 100}, {20, 30}, {150, 160}}, 0}, // fully covered; one outside
		{[]interval{{20, 50}, {10, 30}, {30, 40}}, 60},  // unsorted, nested
		{[]interval{{10, 10}, {50, 40}}, 100},           // empty and inverted
		{[]interval{{0, 60}, {60, 100}, {100, 200}}, 0}, // abutting
		{[]interval{{5, 15}, {15, 25}, {24, 26}}, 100 - 21},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("children %v: self time %d, want %d", c.children, got, c.want)
		}
	}
}

func TestSameRows(t *testing.T) {
	a := [][]any{{10000132.0, 10.0, 1234567.25}, {10000133.0, 10.0, 0.1 + 0.2}, {nil, "x", true}}
	b := [][]any{{nil, "x", true}, {10000133.0, 10.0, 0.3}, {10000132.0, 10.0, 1234567.25 * (1 + 1e-12)}}
	if !sameRows(a, b) {
		t.Error("same bag in another order, floats within tolerance: reported different")
	}
	b[1][2] = 0.3 * (1 + 1e-6)
	if sameRows(a, b) {
		t.Error("a float outside the tolerance: reported same")
	}
	if sameRows(a, a[:2]) || sameRows([][]any{{1.0}}, [][]any{{2.0}}) || !sameRows(nil, [][]any{}) {
		t.Error("row count or key mismatch not detected")
	}
}

func TestCompare(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	mk := func(ops, q1, q3, p50, fail float64) *runFile {
		return &runFile{Workloads: map[string]*result{"serve_hot": {Metrics: map[string]metricValue{
			"ops_per_s":  {Value: ops, Q1: f(q1), Q3: f(q3)},
			"lat_p50_ms": {Value: p50, Q1: f(p50), Q3: f(p50)},
			"fail_frac":  {Value: fail},
		}}}}
	}
	parent := mk(1000, 990, 1010, 1.0, 0)
	for _, c := range []struct {
		name   string
		change *runFile
		code   int
		want   string
	}{
		{"within", mk(950, 940, 960, 1.05, 0), 0, "within-bound"},
		{"worse", mk(700, 690, 710, 1.0, 0), 1, "worse"},
		{"better", mk(1400, 1390, 1410, 1.0, 0), 0, "better"},
		{"unresolved", mk(700, 500, 900, 1.0, 0), 0, "unresolved"},
		{"latency worse", mk(1000, 990, 1010, 1.3, 0), 1, "worse"},
		{"more failures", mk(1000, 990, 1010, 1.0, 0.01), 1, "worse"},
	} {
		var out bytes.Buffer
		if code := compareRuns(parent, c.change, &out); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d, output:\n%s", c.name, code, c.code, out.String())
		}
	}
	// A noisy parent cannot resolve a difference either.
	if v, _ := judge(endToEnd[1], metricValue{Value: 1000, Q1: f(700), Q3: f(1100)}, metricValue{Value: 700, Q1: f(690), Q3: f(710)}); v != unresolved {
		t.Errorf("noisy parent: %s", v)
	}
}
