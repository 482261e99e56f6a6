// Package harness drives the paper's experiments (§5): it generates the
// random view and query workloads, registers views with optimizers in the
// four configurations of Figure 2 (substitutes × filter tree), measures total
// optimization time, time inside the view-matching rule, candidate-set sizes,
// substitute counts, and how many final plans use materialized views —
// everything needed to regenerate Figures 2, 3 and 4 and the in-text
// statistics.
package harness

import (
	"fmt"
	"io"
	"time"

	"matview/internal/catalog"
	"matview/internal/core"
	"matview/internal/opt"
	"matview/internal/spjg"
	"matview/internal/tpch"
	"matview/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed feeds the workload generator (views use Seed, queries the paper's
	// "different seed" via the generator's internal derivation).
	Seed int64
	// ScaleFactor sizes the TPC-H catalog statistics (the paper: "the scale
	// factor does not affect optimization time").
	ScaleFactor float64
	// NumViews is the maximum number of views; sweeps use prefixes of the
	// same view sequence, like adding views to a live system.
	NumViews int
	// NumQueries is the number of queries optimized per measurement.
	NumQueries int
	// ViewCounts are the x-axis points of Figures 2–4.
	ViewCounts []int
	// Workers is the number of goroutines RunPoint fans queries out over via
	// opt.Optimizer.OptimizeAll. 0 or 1 runs serially (the paper's setup);
	// negative selects GOMAXPROCS. Aggregate stats are identical to a serial
	// run either way, but RuleTime sums CPU time across workers, so under
	// parallelism it can exceed TotalTime (which stays wall-clock).
	Workers int
	// Workload overrides the generator configuration (zero value: defaults).
	Workload *workload.Config
}

// DefaultConfig mirrors the paper: 1000 views, 1000 queries, view counts
// swept 0..1000.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		ScaleFactor: 0.5,
		NumViews:    1000,
		NumQueries:  1000,
		ViewCounts:  []int{0, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000},
	}
}

// Setting is one optimizer configuration of Figure 2.
type Setting struct {
	Name        string
	Substitutes bool // false = "No Alt"
	FilterTree  bool // false = "No Filter"
	Extensions  bool // this repo's matcher extensions (§7) on; false = the paper's prototype
}

// The four configurations of Figure 2, then opt.DefaultOptions() — what the
// server and bench/ run — for comparison.
var Settings = []Setting{
	{Name: "Alt&Filter", Substitutes: true, FilterTree: true},
	{Name: "NoAlt&Filter", Substitutes: false, FilterTree: true},
	{Name: "Alt&NoFilter", Substitutes: true, FilterTree: false},
	{Name: "NoAlt&NoFilter", Substitutes: false, FilterTree: false},
	{Name: "Default", Substitutes: true, FilterTree: true, Extensions: true},
}

// Measurement is one (setting, view count) data point.
type Measurement struct {
	Setting        string
	NumViews       int
	TotalTime      time.Duration // total optimization time over NumQueries
	RuleTime       time.Duration // time inside the view-matching rule
	Stats          opt.QueryStats
	PlansWithViews int
	Queries        int
}

// CandidateFraction is the average candidate-set size divided by the number
// of views (the paper: < 0.4 %, specifically 0.29 % at 100 and 0.36 % at
// 1000 views).
func (m Measurement) CandidateFraction() float64 {
	if m.Stats.Invocations == 0 || m.NumViews == 0 {
		return 0
	}
	perInv := float64(m.Stats.CandidatesChecked) / float64(m.Stats.Invocations)
	return perInv / float64(m.NumViews)
}

// SubstitutesPerInvocation is the paper's 0.04 (100 views) → 0.59 (1000).
func (m Measurement) SubstitutesPerInvocation() float64 {
	if m.Stats.Invocations == 0 {
		return 0
	}
	return float64(m.Stats.SubstitutesProduced) / float64(m.Stats.Invocations)
}

// InvocationsPerQuery is the paper's ≈17.8.
func (m Measurement) InvocationsPerQuery() float64 {
	if m.Queries == 0 {
		return 0
	}
	return float64(m.Stats.Invocations) / float64(m.Queries)
}

// SubstitutesPerQuery is the paper's 0.7 (100 views) → 10.5 (1000).
func (m Measurement) SubstitutesPerQuery() float64 {
	if m.Queries == 0 {
		return 0
	}
	return float64(m.Stats.SubstitutesProduced) / float64(m.Queries)
}

// Harness owns the catalog, the generated workload, and run state.
type Harness struct {
	cfg      Config
	cat      *catalog.Catalog
	gen      *workload.Generator
	viewDefs []*spjg.Query
	queries  []*spjg.Query
}

// New builds a harness: catalog, view definitions, and queries. Degenerate
// queries the optimizer cannot plan are regenerated from subsequent indexes
// so every run optimizes exactly NumQueries queries.
func New(cfg Config) *Harness {
	cat := tpch.NewCatalog(cfg.ScaleFactor)
	wcfg := workload.DefaultConfig(cfg.Seed)
	if cfg.Workload != nil {
		wcfg = *cfg.Workload
	}
	gen := workload.New(cat, wcfg)
	h := &Harness{cfg: cfg, cat: cat, gen: gen}

	h.viewDefs = make([]*spjg.Query, 0, cfg.NumViews)
	for i := 0; len(h.viewDefs) < cfg.NumViews; i++ {
		def := gen.View(i)
		if def.ValidateAsView() == nil {
			h.viewDefs = append(h.viewDefs, def)
		}
	}
	h.queries = make([]*spjg.Query, 0, cfg.NumQueries)
	for i := 0; len(h.queries) < cfg.NumQueries; i++ {
		q := gen.Query(i)
		if q.Validate() == nil {
			h.queries = append(h.queries, q)
		}
	}
	return h
}

// Catalog returns the TPC-H catalog.
func (h *Harness) Catalog() *catalog.Catalog { return h.cat }

// ViewDefs returns the generated view definitions.
func (h *Harness) ViewDefs() []*spjg.Query { return h.viewDefs }

// Queries returns the generated queries.
func (h *Harness) Queries() []*spjg.Query { return h.queries }

// newOptimizer builds an optimizer in the given setting with the first
// numViews views registered.
func (h *Harness) newOptimizer(s Setting, numViews int) (*opt.Optimizer, error) {
	opts := opt.DefaultOptions()
	opts.UseFilterTree = s.FilterTree
	opts.NoSubstitutes = !s.Substitutes
	// The figures reproduce the paper's prototype, which has none of this
	// repo's matcher extensions (backjoins, disjunctive ranges, …); the
	// extensions are measured separately by BenchmarkAblations.
	if !s.Extensions {
		opts.Match = core.MatchOptions{}
	}
	o := opt.NewOptimizer(h.cat, opts)
	for i := 0; i < numViews && i < len(h.viewDefs); i++ {
		if _, err := o.RegisterView(fmt.Sprintf("mv%04d", i), h.viewDefs[i]); err != nil {
			return nil, fmt.Errorf("harness: registering view %d: %w", i, err)
		}
	}
	return o, nil
}

// RunPoint optimizes every query under one setting with numViews views and
// returns the measurement. With cfg.Workers > 1 (or negative for
// GOMAXPROCS) the queries are fanned out over OptimizeAll's worker pool;
// plan choices and aggregate counts are identical to the serial run, only
// TotalTime (wall-clock) changes.
func (h *Harness) RunPoint(s Setting, numViews int) (Measurement, error) {
	o, err := h.newOptimizer(s, numViews)
	if err != nil {
		return Measurement{}, err
	}
	workers := h.cfg.Workers
	if workers == 0 {
		workers = 1
	}
	m := Measurement{Setting: s.Name, NumViews: numViews, Queries: len(h.queries)}
	start := time.Now()
	results, stats, err := o.OptimizeAll(h.queries, workers)
	if err != nil {
		return Measurement{}, fmt.Errorf("harness: %w", err)
	}
	m.TotalTime = time.Since(start)
	m.Stats = stats
	for _, res := range results {
		if res.UsesView {
			m.PlansWithViews++
		}
	}
	m.RuleTime = m.Stats.ViewMatchTime
	return m, nil
}

// RunFigure2 sweeps all settings over the configured view counts —
// Figure 2's four optimization-time curves (the Alt&Filter line doubles as
// the total-increase series of Figure 3, whose second series is RuleTime).
func (h *Harness) RunFigure2(w io.Writer) ([]Measurement, error) {
	var out []Measurement
	for _, s := range Settings {
		for _, n := range h.cfg.ViewCounts {
			m, err := h.RunPoint(s, n)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
			if w != nil {
				fmt.Fprintf(w, "%-15s views=%4d  opt_time=%10v  rule_time=%10v  plans_with_views=%4d/%d\n",
					m.Setting, m.NumViews, m.TotalTime, m.RuleTime, m.PlansWithViews, m.Queries)
			}
		}
	}
	return out, nil
}

// RunFigure34 runs only the full configuration over the view counts: Figure 3
// (total increase vs rule time) and Figure 4 (plans using views).
func (h *Harness) RunFigure34(w io.Writer) ([]Measurement, error) {
	var out []Measurement
	for _, n := range h.cfg.ViewCounts {
		m, err := h.RunPoint(Settings[0], n)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
		if w != nil {
			fmt.Fprintf(w, "views=%4d  opt_time=%10v  rule_time=%10v  plans_with_views=%4d/%d  subs/query=%.2f\n",
				m.NumViews, m.TotalTime, m.RuleTime, m.PlansWithViews, m.Queries, m.SubstitutesPerQuery())
		}
	}
	return out, nil
}
