package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"matview/internal/catalog"
	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/server"
	"matview/internal/shell"
	"matview/internal/sqlparser"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
	"matview/internal/tpch"
	"matview/internal/wal"
)

// Marker orders are extra orders the bootstrap adds; the writer's lineitem
// rows hang off them, so the two lineitem-orders join views see non-empty
// deltas and a DELETE by marker key removes exactly one INSERT's rows.
const (
	markerBase   = 10_000_000
	markerOrders = 512
	insertRows   = 10
)

// writeDDL creates the eight maintained views and the view index: four
// lineitem rollups (float SUMs throughout — TPC-H quantities and prices are
// floats here), two lineitem-orders join views, one SPJ range view, and one
// orders-only view that lineitem DML must leave alone.
var writeDDL = []string{
	"create view wm_part with schemabinding as select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty from lineitem group by l_partkey",
	"create unique index wm_part_idx on wm_part (l_partkey)",
	"create view wm_supp with schemabinding as select l_suppkey, count_big(*) as cnt, sum(l_extendedprice) as revenue from lineitem group by l_suppkey",
	"create view wm_flag with schemabinding as select l_returnflag, l_linestatus, count_big(*) as cnt, sum(l_quantity) as qty from lineitem group by l_returnflag, l_linestatus",
	"create view wm_mode with schemabinding as select l_shipmode, count_big(*) as cnt, sum(l_extendedprice * (1 - l_discount)) as revenue from lineitem group by l_shipmode",
	"create view wm_cust with schemabinding as select o_custkey, count_big(*) as cnt, sum(l_quantity) as qty from lineitem, orders where l_orderkey = o_orderkey group by o_custkey",
	"create view wm_prio with schemabinding as select o_orderpriority, count_big(*) as cnt, sum(l_extendedprice) as revenue from lineitem, orders where l_orderkey = o_orderkey group by o_orderpriority",
	"create view wm_small with schemabinding as select l_orderkey, l_linenumber, l_partkey, l_quantity from lineitem where l_quantity <= 3",
	"create view wm_ocust with schemabinding as select o_custkey, count_big(*) as cnt, sum(o_totalprice) as total from orders group by o_custkey",
}

const writeViews = 8

// writeBootstrap builds the initial database: TPC-H data from the seed plus
// the marker orders. wal.Open re-runs it on recovery, so it is deterministic.
func writeBootstrap(sf float64, seed int64) (*storage.Database, error) {
	db, err := tpch.NewDatabase(sf, seed)
	if err != nil {
		return nil, err
	}
	custs := db.Catalog.Table("customer").RowCount
	orders := db.Table("orders")
	for j := int64(0); j < markerOrders; j++ {
		if err := orders.Insert(storage.Row{
			sqlvalue.NewInt(markerBase + j), sqlvalue.NewInt(1 + j%custs), sqlvalue.NewString("O"),
			sqlvalue.NewFloat(1000), sqlvalue.NewDateYMD(1995, time.January, 1), sqlvalue.NewString("1-URGENT"),
			sqlvalue.NewString("Clerk#000000001"), sqlvalue.NewInt(0), sqlvalue.NewString("bench marker order"),
		}); err != nil {
			return nil, err
		}
	}
	db.RefreshStats()
	db.Commit()
	return db, nil
}

// dmlScript generates the writer's statements: two 10-row INSERTs on fresh
// marker keys, then one DELETE of the two oldest live markers, and so on.
// Two to one, not alternating: with equal shares the median latency would
// sit between the two statement kinds and flip from run to run. At most four
// markers are live at any time, so the 512 marker keys can be reused in turn.
type dmlScript struct {
	rng      *rand.Rand
	parts    int64
	supps    int64
	n        int           // statements generated
	inserted int64         // INSERTs generated
	deleted  int64         // markers deleted
	live     map[int64]int // marker key → rows an acknowledged INSERT left there
	pending  func()        // applies the last statement's effect to live once acknowledged
}

func newDMLScript(seed int64, cat *catalog.Catalog) *dmlScript {
	return &dmlScript{rng: rand.New(rand.NewSource(seed)), live: map[int64]int{},
		parts: cat.Table("part").RowCount, supps: cat.Table("supplier").RowCount}
}

func (d *dmlScript) next() string {
	defer func() { d.n++ }()
	if d.n%3 == 2 {
		lo := markerBase + d.deleted%markerOrders // deleted is even, so the pair never wraps
		hi := lo + 1
		d.deleted += 2
		d.pending = func() { delete(d.live, lo); delete(d.live, hi) }
		return fmt.Sprintf("delete from lineitem where l_orderkey >= %d and l_orderkey <= %d", lo, hi)
	}
	key := markerBase + d.inserted%markerOrders
	d.inserted++
	d.pending = func() { d.live[key] = insertRows }
	var sb strings.Builder
	sb.WriteString("insert into lineitem values ")
	for j := 0; j < insertRows; j++ {
		if j > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %d, %d, %d.25, 0.0%d, 0.02, 'N', 'O', '1995-03-%02d', '1995-04-01', '1995-04-10', 'NONE', 'AIR', 'bench marker')",
			key, 1+d.rng.Int63n(d.parts), 1+d.rng.Int63n(d.supps), j+1, 1+d.rng.Intn(50), 1000+d.rng.Intn(9000), d.rng.Intn(10), 1+d.rng.Intn(28))
	}
	return sb.String()
}

// ack records that the last generated statement was acknowledged.
func (d *dmlScript) ack() { d.pending() }

// writeStack is the durable stack under test.
type writeStack struct {
	dir  string
	opts wal.Options
	res  *wal.OpenResult
	srv  *server.Server
	h    http.Handler
}

func (w *writeStack) shutdown() {
	w.srv.Shutdown(context.Background())
	os.RemoveAll(w.dir)
}

func setupWrite(cfg runConfig) (*writeStack, error) {
	dir, err := os.MkdirTemp("", "mvbench-wal-")
	if err != nil {
		return nil, err
	}
	w := &writeStack{dir: dir, opts: wal.Options{
		NewCatalog: func() *catalog.Catalog { return tpch.NewCatalog(cfg.scale.sfWrite) },
		Bootstrap:  func() (*storage.Database, error) { return writeBootstrap(cfg.scale.sfWrite, cfg.seed) },
	}}
	if w.res, err = wal.Open(dir, w.opts); err != nil {
		return nil, err
	}
	scfg := server.DefaultConfig()
	scfg.DataDir = dir
	// One checkpoint per part of the window (see loopResult.report), so at
	// least five cycles complete in it and every part pays for one.
	scfg.CheckpointInterval = cfg.window / loopSlices
	w.srv = server.NewRecovering(scfg)
	w.srv.Adopt(w.res)
	w.h = w.srv.Handler()
	for _, ddl := range writeDDL {
		if err := execSQL(w.h, ddl); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// readerStatements are point rollups the maintained view wm_part answers.
func readerStatements(seed int64, cat *catalog.Catalog) []*statement {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	parts := int(cat.Table("part").RowCount)
	var out []*statement
	for _, p := range rng.Perm(parts)[:min(64, parts)] {
		s := newStatement(fmt.Sprintf(
			"select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = %d group by l_partkey", p+1))
		s.lo, s.hi = int64(p+1), int64(p+1)
		out = append(out, s)
	}
	return out
}

// verifyState checks a quiescent stack against the oracle: every reader
// statement through answer, every acknowledged INSERT present and DELETE
// absent, and every view equal to a reference recompute of its definition.
func verifyState(r *result, when string, db *storage.Database, sess *shell.Session, script *dmlScript,
	readers []*statement, answer func(sql string) ([][]any, error)) error {
	snap := db.Snapshot()
	defer snap.Release()
	byPart, err := reference(db.Catalog, snap, "select l_partkey, sum(l_quantity) as qty from lineitem group by l_partkey")
	if err != nil {
		return err
	}
	for _, s := range readers {
		got, err := answer(s.sql)
		r.check(err == nil && sameRows(got, s.cut(byPart)), "%s: %q differs from the reference (%v)", when, s.sql, err)
	}
	markers, err := reference(db.Catalog, snap, fmt.Sprintf(
		"select l_orderkey, count_big(*) as cnt from lineitem where l_orderkey >= %d group by l_orderkey", markerBase))
	if err != nil {
		return err
	}
	var want [][]any
	for key, rows := range script.live {
		want = append(want, []any{float64(key), float64(rows)})
	}
	r.check(sameRows(markers, want), "%s: %d marker keys hold rows, %d acknowledged INSERTs are live", when, len(markers), len(want))
	for _, v := range sess.Opt.Views() {
		plan, err := exec.BuildReferencePlan(v.Def)
		if err != nil {
			return err
		}
		ref, err := exec.RunReference(snap, plan)
		if err != nil {
			return err
		}
		stored := snap.ViewData(v.Name)
		r.check(stored != nil && exec.SameRows(stored.Rows(), ref), "%s: view %s differs from a recompute of its definition", when, v.Name)
	}
	return nil
}

func runWriteMaintain(cfg runConfig, r *result) error {
	w, err := timeSetups(r, cfg, func() (*writeStack, error) { return setupWrite(cfg) }, (*writeStack).shutdown)
	if err != nil {
		return err
	}
	defer os.RemoveAll(w.dir)
	cat := w.res.DB.Catalog
	script := newDMLScript(cfg.seed, cat)
	readers := readerStatements(cfg.seed, cat)
	viaHandler := func(sql string) ([][]any, error) {
		resp, err := query(w.h, sql)
		if err != nil {
			return nil, err
		}
		return resp.Rows, nil
	}
	if err := verifyState(r, "before the window", w.res.DB, w.res.Session, script, readers, viaHandler); err != nil {
		return err
	}

	r.Clients["writer"] = 1
	nReaders := clients(2) - 1
	r.Clients["reader"] = nReaders
	var tracers []*tracer
	epoch := time.Now()
	for c := 0; c < 2; c++ {
		tracers = append(tracers, newTracer(c, epoch))
	}
	replayer := queryReplayer{srv: w.srv, db: w.res.DB, execSpan: "exec.view_seek_us"}
	// window runs the writer and, on a second core, the reader, both for the
	// same wall-clock time.
	window := func(d time.Duration, traced bool) (writes, reads *loopResult) {
		var wg sync.WaitGroup
		if nReaders > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reads = closedLoop(1, d, len(readers), func(_, i int) (time.Duration, bool) {
					if traced {
						code, _, dur := replayer.tracedQuery(tracers[1], w.h, readers[i], true)
						return dur, code == http.StatusOK
					}
					code, _, _, dur := call(w.h, "/query", readers[i].body)
					return dur, code == http.StatusOK
				}, nil)
			}()
		}
		writes = closedLoop(1, d, 3, func(int, int) (time.Duration, bool) {
			sql := script.next()
			code, _, start, dur := call(w.h, "/exec", requestBody(sql))
			if code == http.StatusOK {
				script.ack()
			}
			if traced {
				rt := tracers[0].root("server.exec_handler", start, dur)
				rt.stage("sqlparser.parse_dml_us", func() { _, _ = sqlparser.Parse(cat, sql) })
				rt.finish("", true)
			}
			return dur, code == http.StatusOK
		}, nil)
		wg.Wait()
		return writes, reads
	}
	d := cfg.window
	if cfg.trace {
		d /= 2
	}
	before, cache, walBefore := readProcess(), w.srv.Cache().Stats(), w.res.Manager.StatsSnapshot()
	writes, reads := window(d, false)
	r.setProcess(before, writes.ops())
	cacheAfter := w.srv.Cache().Stats()
	r.count(writes)
	if reads != nil {
		r.count(reads)
		reads.report(r, "", "read_p50_ms", "read_p95_ms")
		r.set("server.read_plancache_hit_frac", float64(cacheAfter.Hits-cache.Hits)/
			float64(cacheAfter.Hits-cache.Hits+cacheAfter.Misses-cache.Misses))
	}
	if !cfg.trace {
		writes.report(r, "ops_per_s", "lat_p50_ms", "lat_p95_ms")
	} else {
		twrites, treads := window(d, true)
		r.count(twrites)
		r.count(treads)
		if err := writeSpans(filepath.Join(cfg.outDir, "spans-"+cfg.workload+".jsonl"), tracers); err != nil {
			return err
		}
		r.set("bench.trace_overhead_frac", traceOverhead(writes, twrites))
		r.setNs("sqlparser.parse_dml_us", tracers[0].samples["sqlparser.parse_dml_us"])
	}
	// Counted over the untraced and the traced half together: cfg.window.
	walAfter := w.res.Manager.StatsSnapshot()
	stmts := float64(walAfter.Records - walBefore.Records)
	r.set("wal.bytes_per_stmt", float64(walAfter.Bytes-walBefore.Bytes)/stmts)
	r.set("wal.fsyncs_per_stmt", float64(walAfter.Fsyncs-walBefore.Fsyncs)/stmts)
	r.set("wal.checkpoints", float64(walAfter.Checkpoints-walBefore.Checkpoints))
	mvcc := w.res.DB.MVCCStats()
	r.set("storage.live_versions", float64(mvcc.RetainedVersions))
	r.set("storage.gc_reclaimed", float64(mvcc.VersionsReclaimed))
	r.set("maintain.stale_views", float64(writeViews-w.srv.Maintainer().Stats().Fresh))

	if err := verifyState(r, "after the window", w.res.DB, w.res.Session, script, readers, viaHandler); err != nil {
		return err
	}
	return writeRecovery(cfg, r, w, script, readers)
}

// writeRecovery is the part after the window. Shutdown checkpoints and
// closes the stack; it is reopened without a server (so no background
// checkpoint can land in the tail), exactly scale.tail further statements
// are committed, and the stack is dropped without a checkpoint — every
// acknowledged statement is already fsync'd, which is all a killed process
// leaves behind. The next wal.Open is the recovery that is timed and checked.
func writeRecovery(cfg runConfig, r *result, w *writeStack, script *dmlScript, readers []*statement) error {
	if err := w.srv.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	res, err := wal.Open(w.dir, w.opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	var tail []string
	for i := 0; i < cfg.scale.tail; i++ {
		sql := script.next()
		tail = append(tail, sql)
		err := res.Session.Execute(sql, io.Discard)
		r.check(err == nil, "tail statement %d: %v", i, err)
		if err == nil {
			script.ack()
		}
	}
	if err := res.Manager.Close(); err != nil { // the crash: no checkpoint
		return err
	}

	// A real recovery starts in a fresh process; collect the dead stack so
	// the timed Open does not inherit its heap.
	runtime.GC()
	t := time.Now()
	rec, err := wal.Open(w.dir, w.opts)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	recoverS := time.Since(t).Seconds()
	r.set("recover_s", recoverS)
	r.check(rec.Recovery.ReplayedRecords == cfg.scale.tail, "recovery replayed %d records, want %d", rec.Recovery.ReplayedRecords, cfg.scale.tail)
	direct := func(sql string) ([][]any, error) {
		q, err := sqlparser.ParseQuery(rec.DB.Catalog, sql)
		if err != nil {
			return nil, err
		}
		rows, err := exec.RunQuery(rec.DB, q)
		return jsonRows(rows), err
	}
	if err := verifyState(r, "after recovery", rec.DB, rec.Session, script, readers, direct); err != nil {
		return err
	}
	if !cfg.trace {
		return rec.Manager.Close()
	}

	// Where recovery's time goes: commit one statement (a checkpoint at an
	// unchanged epoch is skipped), time an explicit checkpoint, crash, and
	// time the Open that follows — it replays nothing and writes nothing, so
	// it is the checkpoint load alone.
	var checkpointMs, loadMs []float64
	for i := 0; i < cfg.scale.layerReps; i++ {
		if err := rec.Session.Execute(script.next(), io.Discard); err != nil {
			return err
		}
		script.ack()
		t := time.Now()
		if err := rec.Manager.Checkpoint(wal.GatherSpec(rec.DB, rec.Session)); err != nil {
			return err
		}
		checkpointMs = append(checkpointMs, ms(time.Since(t)))
		if err := rec.Manager.Close(); err != nil {
			return err
		}
		t = time.Now()
		if rec, err = wal.Open(w.dir, w.opts); err != nil {
			return fmt.Errorf("reopening a checkpointed stack: %w", err)
		}
		loadMs = append(loadMs, ms(time.Since(t)))
	}
	defer rec.Manager.Close()
	if files, _ := filepath.Glob(filepath.Join(w.dir, "checkpoint-*.ckpt")); len(files) > 0 {
		if fi, err := os.Stat(files[len(files)-1]); err == nil {
			r.set("wal.checkpoint_mb", float64(fi.Size())/1e6)
		}
	}
	r.setSummary("wal.checkpoint_ms", summarize(checkpointMs), "")
	r.setSummary("wal.checkpoint_load_ms", summarize(loadMs), "")
	r.set("wal.replay_us_per_record", (recoverS*1e3-median(loadMs)-median(checkpointMs))*1e3/float64(cfg.scale.tail))
	return writeTwins(cfg, r, tail)
}

// twinStatements caps how many of the tail's statements the twins replay:
// thirty insert-insert-delete cycles are enough for a median, and four
// stacks run each of them.
const twinStatements = 90

// writeTwins replays the tail's first statements on four fresh twins of the
// stack, statement by statement in turn so all four see the same heap and
// the same table contents, and takes per-statement differences that isolate
// one layer each:
//
//	bare     in memory, no views, Maintainer called directly
//	full     in memory, eight views, Maintainer called directly
//	durable  WAL-backed, eight views, Session.Execute  (− parse − full = WAL)
//	served   in memory, eight views, /exec handler     (− parse − full = server)
func writeTwins(cfg runConfig, r *result, tail []string) error {
	if len(tail) > twinStatements {
		tail = tail[:twinStatements]
	}
	memory := func(ddl []string) (*shell.Session, error) {
		db, err := writeBootstrap(cfg.scale.sfWrite, cfg.seed)
		if err != nil {
			return nil, err
		}
		sess := shell.NewSession(db)
		for _, s := range ddl {
			if err := sess.Execute(s, io.Discard); err != nil {
				return nil, err
			}
		}
		return sess, nil
	}
	bare, err := memory(nil)
	if err != nil {
		return err
	}
	full, err := memory(writeDDL)
	if err != nil {
		return err
	}
	dcfg := cfg
	dcfg.window = time.Hour // no background checkpoint while the twins run
	durable, err := setupWrite(dcfg)
	if err != nil {
		return err
	}
	defer durable.shutdown()
	served, err := memory(nil)
	if err != nil {
		return err
	}
	srv := server.New(served.DB, server.DefaultConfig())
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	for _, s := range writeDDL {
		if err := execSQL(h, s); err != nil {
			return err
		}
	}

	// maintain runs a parsed statement through the Maintainer alone.
	maintain := func(sess *shell.Session, st *sqlparser.Statement) (time.Duration, error) {
		t := time.Now()
		var err error
		if st.Insert != nil {
			rows := make([]storage.Row, len(st.Insert.Rows))
			for i, row := range st.Insert.Rows {
				rows[i] = storage.Row(row)
			}
			err = sess.Maint.Insert(st.Insert.Table, rows)
		} else {
			where := expr.CompilePredicate(st.Delete.Where)
			_, err = sess.Maint.Delete(st.Delete.Table, func(row storage.Row) bool {
				ok, err := where(row)
				return err == nil && ok
			})
		}
		return time.Since(t), err
	}
	var ins0, ins8, del0, del8, perView, commitNs, walNs, serverNs []float64
	var allocated uint64
	for _, sql := range tail {
		t := time.Now()
		st, err := sqlparser.Parse(bare.DB.Catalog, sql)
		parse := time.Since(t)
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d0, err := maintain(bare, st)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		allocated += m1.TotalAlloc - m0.TotalAlloc
		d8, err := maintain(full, st)
		if err != nil {
			return err
		}
		t = time.Now()
		full.DB.Commit()
		commitNs = append(commitNs, float64(time.Since(t).Nanoseconds()))
		t = time.Now()
		if err := durable.res.Session.Execute(sql, io.Discard); err != nil {
			return err
		}
		dw := time.Since(t)
		code, _, _, ds := call(h, "/exec", requestBody(sql))
		if code != http.StatusOK {
			return fmt.Errorf("twin /exec %q: status %d", sql, code)
		}
		if st.Insert != nil {
			ins0, ins8 = append(ins0, float64(d0)), append(ins8, float64(d8))
		} else {
			del0, del8 = append(del0, float64(d0)), append(del8, float64(d8))
		}
		perView = append(perView, ms(d8-d0)/writeViews)
		walNs = append(walNs, float64(dw-parse-d8))
		serverNs = append(serverNs, float64(ds-parse-d8))
	}
	r.setNs("maintain.insert_ms_0views", ins0)
	r.setNs("maintain.delete_ms_0views", del0)
	r.setNs("maintain.insert_ms_8views", ins8)
	r.setNs("maintain.delete_ms_8views", del8)
	r.setSummary("maintain.delta_ms_per_view", summarize(perView), "")
	r.setNs("storage.commit_us", commitNs)
	r.set("storage.cow_mb_per_stmt", float64(allocated)/1e6/float64(len(tail)))
	r.setNs("wal.commit_us", walNs)
	r.setNs("server.exec_other_us", serverNs)
	return nil
}
