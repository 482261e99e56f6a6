package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"time"

	"matview/internal/catalog"
	"matview/internal/core"
	"matview/internal/exec"
	"matview/internal/filtertree"
	"matview/internal/opt"
	"matview/internal/spjg"
	"matview/internal/tpch"
	"matview/internal/workload"
)

// paperWorkloadSeed fixes the view and query sets of optimize_1000v to one
// draw of the §5 generator. Between generator seeds the time of a pass over
// 1000 queries moves by about 10 % (quartile distance over ten seeds, most of
// it from the view set), which is the size of the regression bound; so the
// benchmark seed decides the order views are registered in and the order
// queries are issued in, not which views and queries exist.
const paperWorkloadSeed = 1

// optimizeState is what one set-up of optimize_1000v builds.
type optimizeState struct {
	cat        *catalog.Catalog
	opt        *opt.Optimizer
	views      []*spjg.Query
	queries    []*spjg.Query
	explain    []uint64  // digest of each query's plan at warm-up
	registerNs []float64 // one RegisterView each
}

func explainDigest(plan exec.Node) uint64 {
	h := fnv.New64a()
	h.Write([]byte(exec.Explain(plan)))
	return h.Sum64()
}

func setupOptimize(cfg runConfig) (*optimizeState, error) {
	st := &optimizeState{cat: tpch.NewCatalog(0.5)}
	gen := workload.New(st.cat, workload.DefaultConfig(paperWorkloadSeed))
	for i := 0; len(st.views) < cfg.scale.views; i++ {
		if v := gen.View(i); v.ValidateAsView() == nil {
			st.views = append(st.views, v)
		}
	}
	for i := 0; len(st.queries) < cfg.scale.queries; i++ {
		if q := gen.Query(i); q.Validate() == nil {
			st.queries = append(st.queries, q)
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(st.views), func(i, j int) { st.views[i], st.views[j] = st.views[j], st.views[i] })
	rng.Shuffle(len(st.queries), func(i, j int) { st.queries[i], st.queries[j] = st.queries[j], st.queries[i] })

	st.opt = opt.NewOptimizer(st.cat, opt.DefaultOptions())
	for i, v := range st.views {
		t := time.Now()
		if _, err := st.opt.RegisterView(fmt.Sprintf("mv%04d", i), v); err != nil {
			return nil, fmt.Errorf("registering view %d: %w", i, err)
		}
		st.registerNs = append(st.registerNs, float64(time.Since(t).Nanoseconds()))
	}
	// Warm-up pass; its plans are what every later pass must reproduce.
	st.explain = make([]uint64, len(st.queries))
	for i, q := range st.queries {
		res, err := st.opt.OptimizeCtx(context.Background(), q)
		if err != nil {
			return nil, fmt.Errorf("warm-up of query %d: %w", i, err)
		}
		st.explain[i] = explainDigest(res.Plan)
	}
	return st, nil
}

func runOptimize(cfg runConfig, r *result) error {
	st, err := timeSetups(r, cfg, func() (*optimizeState, error) { return setupOptimize(cfg) }, nil)
	if err != nil {
		return err
	}
	r.Clients["optimize"] = 1
	ctx := context.Background()
	n := len(st.queries)
	results := make([]*opt.Result, n)
	used := 0
	// afterPass checks a whole pass outside the timed calls: no optimizer
	// error, and every plan identical to the warm-up's.
	afterPass := func(int) {
		used = 0
		for i, res := range results {
			r.check(res != nil && explainDigest(res.Plan) == st.explain[i], "query %d: error or a plan that differs from the warm-up pass", i)
			if res != nil && res.UsesView {
				used++
			}
		}
	}
	plain := func(_, i int) (time.Duration, bool) {
		t := time.Now()
		res, err := st.opt.OptimizeCtx(ctx, st.queries[i])
		d := time.Since(t)
		results[i] = res
		return d, err == nil
	}

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	before := readProcess()
	loop := closedLoop(1, window, n, plain, afterPass)
	r.setProcess(before, loop.ops())
	r.set("views_used_frac", float64(used)/float64(n))
	if !cfg.trace {
		loop.report(r, "ops_per_s", "lat_p50_ms", "lat_p95_ms")
		return nil
	}

	// Traced half: the same call as the root span, then the rule's stages
	// for the top-level expression replayed on the benchmark's own filter
	// tree (the optimizer's is private): key computation, the lookup, and
	// one match test per candidate.
	tree := filtertree.New()
	var insertNs []float64
	for _, v := range st.opt.Views() {
		t := time.Now()
		tree.Insert(v)
		insertNs = append(insertNs, float64(time.Since(t).Nanoseconds()))
	}
	m := st.opt.Matcher()
	tr := newTracer(0, time.Now())
	var lookups, candidates, matched int
	traced := func(_, i int) (time.Duration, bool) {
		q := st.queries[i]
		t := time.Now()
		res, err := st.opt.OptimizeCtx(ctx, q)
		d := time.Since(t)
		rt := tr.root("opt.optimize", t, d)
		results[i] = res
		var qk core.QueryKeys
		var cands []*core.View
		rt.stage("core.query_keys_us", func() { qk = m.ComputeQueryKeys(q) })
		rt.stage("filtertree.lookup_us", func() { cands = tree.Candidates(&qk) })
		lookups++
		candidates += len(cands)
		for _, v := range cands {
			rt.stage("core.match_us", func() {
				if m.Match(q, v) != nil {
					matched++
				}
			})
		}
		rt.finish("", true)
		return d, err == nil
	}
	tloop := closedLoop(1, window, n, traced, afterPass)
	if err := writeSpans(filepath.Join(cfg.outDir, "spans-"+cfg.workload+".jsonl"), []*tracer{tr}); err != nil {
		return err
	}
	r.set("bench.trace_overhead_frac", traceOverhead(loop, tloop))
	for _, name := range []string{"core.query_keys_us", "filtertree.lookup_us", "core.match_us"} {
		r.setNs(name, tr.samples[name])
	}
	r.setNs("filtertree.insert_us", insertNs)
	r.setNs("opt.register_view_us", st.registerNs)
	r.set("filtertree.candidates_per_lookup", float64(candidates)/float64(lookups))
	r.set("filtertree.candidate_frac", float64(candidates)/float64(lookups)/float64(len(st.views)))
	if candidates > 0 {
		r.set("core.match_success_frac", float64(matched)/float64(candidates))
	}

	// Counts and time shares from the optimizer's own statistics over the
	// last pass, and the same queries against an optimizer with no views.
	var stats opt.QueryStats
	for _, res := range results {
		stats.Add(res.Stats)
	}
	r.set("opt.invocations_per_query", float64(stats.Invocations)/float64(n))
	r.set("opt.candidates_per_query", float64(stats.CandidatesChecked)/float64(n))
	r.set("opt.substitutes_per_query", float64(stats.SubstitutesProduced)/float64(n))
	wall := 0.0
	roots := tr.samples["opt.optimize"]
	for _, v := range roots[len(roots)-n:] {
		wall += v
	}
	r.set("opt.viewmatch_time_frac", float64(stats.ViewMatchTime.Nanoseconds())/wall)
	bare := opt.NewOptimizer(st.cat, opt.DefaultOptions())
	var bareNs []float64
	for rep := 0; rep < cfg.scale.layerReps; rep++ {
		for _, q := range st.queries {
			t := time.Now()
			if _, err := bare.OptimizeCtx(ctx, q); err != nil {
				return fmt.Errorf("optimizing with no views: %w", err)
			}
			bareNs = append(bareNs, float64(time.Since(t).Nanoseconds()))
		}
	}
	r.setNs("opt.optimize0_p50_us", bareNs)
	r.set("opt.increase_pct", (median(flatten(loop.lat))*1e6/median(bareNs)-1)*100)
	return nil
}
