package opt_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"matview/internal/core"
	"matview/internal/exec"
	"matview/internal/opt"
	"matview/internal/spjg"
	"matview/internal/tpch"
	"matview/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/paper1000.golden from the current code")

// paperGolden plans the paper's §5 workload (workload.DefaultConfig(1), the
// first 1000 valid views and queries in generation order, TPC-H SF 0.5
// statistics) under both option sets and renders one line per query: the FNV
// digest of exec.Explain, UsesView, and the rule's counters.
func paperGolden(t *testing.T) []byte {
	t.Helper()
	cat := tpch.NewCatalog(0.5)
	gen := workload.New(cat, workload.DefaultConfig(1))
	const n = 1000
	views := firstValid(n, gen.View, (*spjg.Query).ValidateAsView)
	queries := firstValid(n, gen.Query, (*spjg.Query).Validate)

	paper := opt.DefaultOptions()
	paper.Match = core.MatchOptions{}
	var buf bytes.Buffer
	for _, set := range []struct {
		name string
		opts opt.Options
	}{{"default", opt.DefaultOptions()}, {"paper", paper}} {
		o := opt.NewOptimizer(cat, set.opts)
		for i, v := range views {
			if _, err := o.RegisterView(fmt.Sprintf("mv%04d", i), v); err != nil {
				t.Fatalf("%s: registering view %d: %v", set.name, i, err)
			}
		}
		for i, q := range queries {
			res, err := o.Optimize(q)
			if err != nil {
				t.Fatalf("%s: query %d: %v", set.name, i, err)
			}
			h := fnv.New64a()
			h.Write([]byte(exec.Explain(res.Plan)))
			fmt.Fprintf(&buf, "%s %04d %016x %t %d %d %d\n", set.name, i, h.Sum64(), res.UsesView,
				res.Stats.Invocations, res.Stats.CandidatesChecked, res.Stats.SubstitutesProduced)
		}
	}
	return buf.Bytes()
}

// firstValid collects the first n generated expressions that validate.
func firstValid(n int, item func(int) *spjg.Query, validate func(*spjg.Query) error) []*spjg.Query {
	out := make([]*spjg.Query, 0, n)
	for i := 0; len(out) < n; i++ {
		if q := item(i); validate(q) == nil {
			out = append(out, q)
		}
	}
	return out
}

// TestPaperWorkloadGolden is the differential against the commit the golden
// file was generated at: plans, view usage and the candidate / substitute
// counts of every query must be byte-identical under both option sets. The
// benchmark only checks each pass against its own warm-up, so this is what
// catches a matcher or filter-tree change that alters plans.
func TestPaperWorkloadGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("plans 2×1000 queries against 1000 views")
	}
	path := filepath.Join("testdata", "paper1000.golden")
	got := paperGolden(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	diffs := 0
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			if diffs < 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
			diffs++
		}
	}
	t.Fatalf("golden mismatch: %d differing lines (got %d lines, want %d)", diffs, len(gl), len(wl))
}
