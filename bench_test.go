// Package matview's root benchmarks regenerate every figure of the paper's
// evaluation (§5) as testing.B benchmarks, plus ablations for the design
// choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Figure-level metrics are attached with b.ReportMetric:
//   - plans_with_views_pct   (Figure 4)
//   - rule_time_pct          (Figure 3: share of optimization time in the rule)
//   - candidate_frac_pct     (in-text filtering statistics)
//   - subs_per_query         (in-text statistics)
package matview

import (
	"fmt"
	"sync"
	"testing"

	"matview/internal/core"
	"matview/internal/harness"
	"matview/internal/opt"
)

// benchHarness caches workload construction across benchmarks. The sync.Once
// makes construction safe for benchmarks that call getHarness from
// b.RunParallel goroutines (a bare nil check would race).
var (
	benchHarness     *harness.Harness
	benchHarnessOnce sync.Once
)

func getHarness(b *testing.B) *harness.Harness {
	b.Helper()
	benchHarnessOnce.Do(func() {
		cfg := harness.DefaultConfig(1)
		cfg.NumViews = 1000
		cfg.NumQueries = 200
		benchHarness = harness.New(cfg)
	})
	return benchHarness
}

// optimizeBattery optimizes queries round-robin, b.N operations total, and
// reports figure metrics.
func optimizeBattery(b *testing.B, s harness.Setting, numViews int) {
	h := getHarness(b)
	o, err := newBenchOptimizer(h, s, numViews)
	if err != nil {
		b.Fatal(err)
	}
	queries := h.Queries()
	var stats opt.QueryStats
	plansWithViews := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := o.Optimize(queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		stats.Add(res.Stats)
		if res.UsesView {
			plansWithViews++
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(100*float64(plansWithViews)/float64(b.N), "plans_with_views_pct")
		if stats.Invocations > 0 && numViews > 0 {
			perInv := float64(stats.CandidatesChecked) / float64(stats.Invocations)
			b.ReportMetric(100*perInv/float64(numViews), "candidate_frac_pct")
		}
		b.ReportMetric(float64(stats.SubstitutesProduced)/float64(b.N), "subs_per_query")
		b.ReportMetric(100*stats.ViewMatchTime.Seconds()/b.Elapsed().Seconds(), "rule_time_pct")
	}
}

func newBenchOptimizer(h *harness.Harness, s harness.Setting, numViews int) (*opt.Optimizer, error) {
	opts := opt.DefaultOptions()
	opts.UseFilterTree = s.FilterTree
	opts.NoSubstitutes = !s.Substitutes
	if !s.Extensions {
		opts.Match = core.MatchOptions{} // paper-prototype matcher, as in the figures
	}
	o := opt.NewOptimizer(h.Catalog(), opts)
	for i := 0; i < numViews && i < len(h.ViewDefs()); i++ {
		if _, err := o.RegisterView(fmt.Sprintf("mv%04d", i), h.ViewDefs()[i]); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// BenchmarkFigure2 reproduces Figure 2: per-query optimization time in the
// four configurations, swept over view counts. The paper's curves are
// ns/op as a function of views for each configuration.
func BenchmarkFigure2(b *testing.B) {
	for _, s := range harness.Settings {
		for _, n := range []int{0, 100, 500, 1000} {
			b.Run(fmt.Sprintf("%s/views=%d", s.Name, n), func(b *testing.B) {
				optimizeBattery(b, s, n)
			})
		}
	}
}

// BenchmarkFigure3 reproduces Figure 3: the rule_time_pct metric is the share
// of optimization time spent inside the view-matching rule (the paper: about
// half of the increase at 1000 views originates there).
func BenchmarkFigure3_ViewMatchTime(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("views=%d", n), func(b *testing.B) {
			optimizeBattery(b, harness.Settings[0], n)
		})
	}
}

// BenchmarkFigure4 reproduces Figure 4 via the plans_with_views_pct metric
// (paper: ~60% at 200 views, ~87% at 1000).
func BenchmarkFigure4_PlansUsingViews(b *testing.B) {
	for _, n := range []int{200, 600, 1000} {
		b.Run(fmt.Sprintf("views=%d", n), func(b *testing.B) {
			optimizeBattery(b, harness.Settings[0], n)
		})
	}
}

// BenchmarkAblations toggles each optional feature off against the full
// configuration, at 500 views — the ablation study DESIGN.md calls out.
// Compare ns/op (overhead of the feature) and plans_with_views_pct /
// subs_per_query (benefit of the feature).
func BenchmarkAblations(b *testing.B) {
	h := getHarness(b)
	type ablation struct {
		name   string
		mutate func(*opt.Options)
	}
	ablations := []ablation{
		{"full", func(*opt.Options) {}},
		{"no-preaggregation", func(o *opt.Options) { o.EnablePreAggregation = false }},
		{"no-disjunctive-ranges", func(o *opt.Options) { o.Match.DisjunctiveRanges = false }},
		{"no-subexpression-matching", func(o *opt.Options) { o.Match.SubexpressionMatching = false }},
		{"no-check-constraints", func(o *opt.Options) { o.Match.UseCheckConstraints = false }},
		{"no-backjoins", func(o *opt.Options) { o.Match.BackjoinSubstitutes = false }},
		{"no-grouping-by-expression", func(o *opt.Options) { o.Match.GroupingByExpression = false }},
		{"paper-prototype-matcher", func(o *opt.Options) { o.Match = core.MatchOptions{} }},
	}
	for _, a := range ablations {
		b.Run(a.name, func(b *testing.B) {
			opts := opt.DefaultOptions()
			a.mutate(&opts)
			o := opt.NewOptimizer(h.Catalog(), opts)
			for i := 0; i < 500; i++ {
				if _, err := o.RegisterView(fmt.Sprintf("mv%04d", i), h.ViewDefs()[i]); err != nil {
					b.Fatal(err)
				}
			}
			queries := h.Queries()
			var stats opt.QueryStats
			plansWithViews := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := o.Optimize(queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
				stats.Add(res.Stats)
				if res.UsesView {
					plansWithViews++
				}
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(100*float64(plansWithViews)/float64(b.N), "plans_with_views_pct")
				b.ReportMetric(float64(stats.SubstitutesProduced)/float64(b.N), "subs_per_query")
			}
		})
	}
}
