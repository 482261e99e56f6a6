package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"matview/internal/exec"
	"matview/internal/server"
	"matview/internal/sqlparser"
	"matview/internal/storage"
	"matview/internal/tpch"
)

var analyticShapes = []string{"scan_agg", "range_scan", "join3", "agg_join"}

// analyticPool is the order one pass issues the statements in: three
// range_scan, three scan_agg, six join3 and four agg_join out of sixteen.
// With equal shares the median would sit on the boundary between two shapes
// and jump from one to the other between runs; with these it lies inside
// join3 and p95 inside agg_join.
var analyticPool = []string{
	"range_scan", "scan_agg", "join3", "agg_join", "join3", "range_scan", "scan_agg", "join3",
	"agg_join", "join3", "range_scan", "scan_agg", "join3", "agg_join", "join3", "agg_join",
}

// analyticState is what one set-up of analytic_base builds.
type analyticState struct {
	db       *storage.Database
	srv      *server.Server
	h        http.Handler
	distinct map[string]*statement // shape → statement
	pool     []*statement
}

// analyticStatements draws the constants. They move within narrow ranges, so
// that the work a statement does is nearly the same for every seed: the seed
// picks which rows qualify, not how many.
func analyticStatements(seed int64, db *storage.Database) map[string]*statement {
	rng := rand.New(rand.NewSource(seed))
	keys := db.Catalog.Table("orders").RowCount * 4 // order keys are sparse, up to 4x the count
	lines := db.Catalog.Table("lineitem").RowCount
	// About 5000 lineitem rows per range scan, from the part of the key
	// range the generator filled.
	width := min(5000*keys/lines, keys/4)
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	date := func(y, m, d, jitter int) string {
		t := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC).AddDate(0, 0, rng.Intn(jitter))
		return t.Format("date '2006-01-02'")
	}
	out := map[string]*statement{}
	year := 1993 + rng.Intn(5)
	lo := float64(2+rng.Intn(5)) / 100
	out["scan_agg"] = newStatement(fmt.Sprintf(
		"select count_big(*) as cnt, sum(l_extendedprice) as revenue from lineitem where l_shipdate >= date '%d-01-01' and l_shipdate <= date '%d-12-31' and l_discount >= %.2f and l_discount <= %.2f and l_quantity < %d",
		year, year, lo, lo+0.02, 24+rng.Intn(3)))
	first := 1 + rng.Int63n(keys*3/4-width)
	out["range_scan"] = newStatement(fmt.Sprintf(
		"select l_orderkey, l_linenumber, l_quantity, l_extendedprice from lineitem where l_orderkey >= %d and l_orderkey <= %d",
		first, first+width))
	cut := date(1995, 3, 1, 30)
	out["join3"] = newStatement(fmt.Sprintf(
		"select o_orderkey, o_orderdate, sum(l_extendedprice) as revenue, count_big(*) as cnt from customer, orders, lineitem where c_custkey = o_custkey and l_orderkey = o_orderkey and c_mktsegment = '%s' and o_orderdate < %s and l_shipdate > %s group by o_orderkey, o_orderdate",
		segments[rng.Intn(len(segments))], cut, cut))
	out["agg_join"] = newStatement(fmt.Sprintf(
		"select n_name, sum(l_extendedprice) as revenue, count_big(*) as cnt from lineitem, orders, customer, nation where l_orderkey = o_orderkey and o_custkey = c_custkey and c_nationkey = n_nationkey and l_shipdate >= %s group by n_name",
		date(1995, 1, 1, 60)))
	return out
}

func setupAnalytic(cfg runConfig) (*analyticState, error) {
	db, err := tpch.NewDatabase(cfg.scale.sfAnalytic, cfg.seed)
	if err != nil {
		return nil, err
	}
	st := &analyticState{db: db, distinct: analyticStatements(cfg.seed, db)}
	st.srv = server.New(db, server.DefaultConfig())
	st.h = st.srv.Handler()
	for _, name := range analyticPool {
		st.pool = append(st.pool, st.distinct[name])
	}
	// Warm-up pass: plans are cached, and no later request plans again.
	for _, s := range st.pool {
		if code, body, _, _ := call(st.h, "/query", s.body); code != http.StatusOK {
			return nil, fmt.Errorf("warm-up %q: status %d: %s", s.sql, code, body)
		}
	}
	return st, nil
}

func runAnalytic(cfg runConfig, r *result) error {
	st, err := timeSetups(r, cfg, func() (*analyticState, error) { return setupAnalytic(cfg) },
		func(old *analyticState) { old.srv.Shutdown(context.Background()) })
	if err != nil {
		return err
	}
	defer st.srv.Shutdown(context.Background())
	snap := st.db.Snapshot()
	defer snap.Release()
	var distinct []*statement
	for _, shape := range analyticShapes {
		distinct = append(distinct, st.distinct[shape])
	}
	if err := checkStatements(r, st.h, distinct, func(i int) ([][]any, error) {
		return reference(st.db.Catalog, snap, distinct[i].sql)
	}); err != nil {
		return err
	}

	// One client: the cores go to morsel parallelism inside a query.
	r.Clients["query"] = 1
	plain := func(_, i int) (time.Duration, bool) {
		s := st.pool[i]
		code, body, _, d := call(st.h, "/query", s.body)
		return d, s.answered(code, body)
	}
	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	before := readProcess()
	loop := closedLoop(1, window, len(st.pool), plain, nil)
	r.setProcess(before, loop.ops())
	r.count(loop)
	if !cfg.trace {
		loop.report(r, "ops_per_s", "lat_p50_ms", "lat_p95_ms")
		return nil
	}

	replayer := queryReplayer{srv: st.srv, db: st.db, execSpan: "exec.run"}
	tr := newTracer(0, time.Now())
	tloop := closedLoop(1, window, len(st.pool), func(_, i int) (time.Duration, bool) {
		// Sampled on range_scan only, where the ~5k-row answer makes the
		// encode stage visible.
		code, body, d := replayer.tracedQuery(tr, st.h, st.pool[i], strings.HasPrefix(analyticPool[i], "range_scan"))
		return d, st.pool[i].answered(code, body)
	}, nil)
	r.count(tloop)
	if err := writeSpans(filepath.Join(cfg.outDir, "spans-"+cfg.workload+".jsonl"), []*tracer{tr}); err != nil {
		return err
	}
	r.set("bench.trace_overhead_frac", traceOverhead(loop, tloop))
	for _, name := range []string{"server.handler_us", "server.encode_us", "server.other_us"} {
		r.setNs(name, tr.samples[name])
	}
	return analyticLayers(cfg, st, snap, r)
}

// analyticLayers runs each shape's cached plan directly on the engine, on the
// pinned snapshot, with one worker and with as many as the process has cores
// (never more: a worker count above nproc measures the scheduler), and reads
// the engine's scan and join counters around single runs.
func analyticLayers(cfg runConfig, st *analyticState, snap *storage.Snapshot, r *result) error {
	wmax := runtime.GOMAXPROCS(0)
	r.set("exec.wmax", float64(wmax))
	one, all := &exec.Engine{Workers: 1}, &exec.Engine{Workers: wmax}
	for _, shape := range analyticShapes {
		key, _ := sqlparser.Fingerprint(st.distinct[shape].sql)
		cp, ok := st.srv.Cache().Get(key, st.srv.Optimizer().CatalogEpoch())
		if !ok {
			return fmt.Errorf("%s: plan not cached", shape)
		}
		var w1, wm []float64
		var stats exec.ScanStats // counted over the one-worker runs
		for rep := 0; rep < cfg.scale.layerReps; rep++ {
			b := exec.ReadScanStats()
			t := time.Now()
			if _, err := one.Run(snap, cp.Res.Plan); err != nil {
				return err
			}
			w1 = append(w1, float64(time.Since(t).Nanoseconds()))
			a := exec.ReadScanStats()
			stats.BlocksScanned += a.BlocksScanned - b.BlocksScanned
			stats.BlocksSkipped += a.BlocksSkipped - b.BlocksSkipped
			stats.RowsProbed += a.RowsProbed - b.RowsProbed
			stats.RowsMatched += a.RowsMatched - b.RowsMatched
			stats.RowsGathered += a.RowsGathered - b.RowsGathered
			t = time.Now()
			if _, err := all.Run(snap, cp.Res.Plan); err != nil {
				return err
			}
			wm = append(wm, float64(time.Since(t).Nanoseconds()))
		}
		runs := float64(len(w1))
		r.setNs("exec."+shape+"_w1_ms", w1)
		r.setNs("exec."+shape+"_wmax_ms", wm)
		switch shape {
		case "range_scan":
			r.set("exec.blocks_skipped_frac", stats.SkipRate())
		case "join3":
			r.set("exec.rows_probed_per_op", float64(stats.RowsProbed)/runs)
			r.set("exec.probe_hit_frac", stats.ProbeHitRate())
			r.set("exec.rows_gathered_per_op", float64(stats.RowsGathered)/runs)
		case "agg_join":
			if stats.RowsProbed > 0 {
				r.set("exec.agg_join_ns_per_probed_row", median(w1)*runs/float64(stats.RowsProbed))
			}
		}
	}
	return nil
}
