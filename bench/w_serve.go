package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"time"

	"matview/internal/server"
	"matview/internal/sqlparser"
	"matview/internal/storage"
	"matview/internal/tpch"
)

// serveState is what one set-up of serve_hot builds.
type serveState struct {
	db     *storage.Database
	srv    *server.Server
	h      http.Handler
	stmts  []*statement
	points int // the first points statements are the point rollups
	// missNs is the handler's latency on first sight of each statement.
	missNs []float64
}

const (
	servePartView = "create view sh_pq with schemabinding as select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty from lineitem group by l_partkey"
	servePartIdx  = "create unique index sh_pq_idx on sh_pq (l_partkey)"
	serveCustView = "create view sh_oc with schemabinding as select o_custkey, count_big(*) as cnt, sum(o_totalprice) as total from orders group by o_custkey"
)

// serveStatements draws the pool: point rollups of lineitem by part key,
// answered by an index seek on sh_pq, then small range rollups of orders by
// customer key, answered by a scan of sh_oc with a compensating predicate.
func serveStatements(cfg runConfig, db *storage.Database) *serveState {
	st := &serveState{db: db, points: cfg.scale.points}
	rng := rand.New(rand.NewSource(cfg.seed))
	parts := db.Catalog.Table("part").RowCount
	custs := db.Catalog.Table("customer").RowCount
	for _, p := range rng.Perm(int(parts))[:cfg.scale.points] {
		s := newStatement(fmt.Sprintf(
			"select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = %d group by l_partkey", p+1))
		s.lo, s.hi = int64(p+1), int64(p+1)
		st.stmts = append(st.stmts, s)
	}
	const width = 8
	for _, c := range rng.Perm(int(custs) - width)[:cfg.scale.ranges] {
		s := newStatement(fmt.Sprintf(
			"select o_custkey, sum(o_totalprice) as total from orders where o_custkey >= %d and o_custkey <= %d group by o_custkey", c+1, c+1+width))
		s.lo, s.hi = int64(c+1), int64(c+1+width)
		st.stmts = append(st.stmts, s)
	}
	return st
}

func setupServe(cfg runConfig) (*serveState, error) {
	db, err := tpch.NewDatabase(cfg.scale.sfServe, cfg.seed)
	if err != nil {
		return nil, err
	}
	st := serveStatements(cfg, db)
	st.srv = server.New(db, server.DefaultConfig())
	st.h = st.srv.Handler()
	for _, ddl := range []string{servePartView, servePartIdx, serveCustView} {
		if err := execSQL(st.h, ddl); err != nil {
			return nil, err
		}
	}
	// Warm-up pass: every statement is planned and cached.
	for _, s := range st.stmts {
		code, body, _, d := call(st.h, "/query", s.body)
		if code != http.StatusOK {
			return nil, fmt.Errorf("warm-up %q: status %d: %s", s.sql, code, body)
		}
		st.missNs = append(st.missNs, float64(d.Nanoseconds()))
	}
	return st, nil
}

// serveOracle answers the pool from two runs of the reference evaluator over
// base tables — the ungrouped-by-constant rollups — and cuts each statement's
// rows out of them. One reference run per statement costs a full
// row-at-a-time pass over lineitem each, 256 times.
func serveOracle(st *serveState) (func(i int) ([][]any, error), error) {
	snap := st.db.Snapshot()
	defer snap.Release()
	byPart, err := reference(st.db.Catalog, snap, "select l_partkey, sum(l_quantity) as qty from lineitem group by l_partkey")
	if err != nil {
		return nil, err
	}
	byCust, err := reference(st.db.Catalog, snap, "select o_custkey, sum(o_totalprice) as total from orders group by o_custkey")
	if err != nil {
		return nil, err
	}
	return func(i int) ([][]any, error) {
		if i < st.points {
			return st.stmts[i].cut(byPart), nil
		}
		return st.stmts[i].cut(byCust), nil
	}, nil
}

func runServeHot(cfg runConfig, r *result) error {
	st, err := timeSetups(r, cfg, func() (*serveState, error) { return setupServe(cfg) },
		func(old *serveState) { old.srv.Shutdown(context.Background()) })
	if err != nil {
		return err
	}
	defer st.srv.Shutdown(context.Background())
	want, err := serveOracle(st)
	if err != nil {
		return err
	}
	if err := checkStatements(r, st.h, st.stmts, want); err != nil {
		return err
	}

	nc := clients(2)
	r.Clients["query"] = nc
	plain := func(_, i int) (time.Duration, bool) {
		s := st.stmts[i]
		code, body, _, d := call(st.h, "/query", s.body)
		return d, s.answered(code, body)
	}
	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	before, cache := readProcess(), st.srv.Cache().Stats()
	loop := closedLoop(nc, window, len(st.stmts), plain, nil)
	r.setProcess(before, loop.ops())
	after := st.srv.Cache().Stats()
	r.set("server.plancache_hit_frac", float64(after.Hits-cache.Hits)/float64(after.Hits-cache.Hits+after.Misses-cache.Misses))
	r.count(loop)
	if !cfg.trace {
		loop.report(r, "ops_per_s", "lat_p50_ms", "lat_p95_ms")
		return nil
	}

	replayer := queryReplayer{srv: st.srv, db: st.db, execSpan: "exec.view_seek_us"}
	tracers := make([]*tracer, nc)
	epoch := time.Now()
	for c := range tracers {
		tracers[c] = newTracer(c, epoch)
	}
	tloop := closedLoop(nc, window, len(st.stmts), func(c, i int) (time.Duration, bool) {
		// The stage budget is taken over the point rollups, three quarters
		// of the pool; the range rollups are traced but not sampled.
		code, body, d := replayer.tracedQuery(tracers[c], st.h, st.stmts[i], i < st.points)
		return d, st.stmts[i].answered(code, body)
	}, nil)
	r.count(tloop)
	if err := writeSpans(filepath.Join(cfg.outDir, "spans-"+cfg.workload+".jsonl"), tracers); err != nil {
		return err
	}
	r.set("bench.trace_overhead_frac", traceOverhead(loop, tloop))
	samples := mergeSamples(tracers)
	for _, name := range []string{"server.handler_us", "sqlparser.fingerprint_us", "server.plancache_get_ns",
		"storage.snapshot_ns", "exec.view_seek_us", "server.encode_us", "server.other_us"} {
		r.setNs(name, samples[name])
	}
	return serveColdPass(st, r)
}

// serveColdPass reports what the first sight of a statement costs: the
// handler's plan-miss latency from the warm-up pass, and the parse and the
// optimization (against the two views) that make it up.
func serveColdPass(st *serveState, r *result) error {
	var parseNs, optNs []float64
	for _, s := range st.stmts {
		t := time.Now()
		parsed, err := sqlparser.Parse(st.db.Catalog, s.sql)
		parseNs = append(parseNs, float64(time.Since(t).Nanoseconds()))
		if err != nil {
			return err
		}
		t = time.Now()
		_, err = st.srv.Optimizer().OptimizeCtx(context.Background(), parsed.Query)
		optNs = append(optNs, float64(time.Since(t).Nanoseconds()))
		if err != nil {
			return err
		}
	}
	r.setNs("server.plan_miss_us", st.missNs)
	r.setNs("sqlparser.parse_us", parseNs)
	r.setNs("opt.optimize_us", optNs)
	return nil
}
