package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"matview/internal/exec"
	"matview/internal/faults"
	"matview/internal/maintain"
	"matview/internal/shell"
	"matview/internal/sqlparser"
	"matview/internal/storage"
	"matview/internal/tpch"
)

// TestServerDegradedLifecycle is the deterministic end-to-end walk through
// the lifecycle: a fault during maintenance turns the statement into a 422,
// the view goes Stale, /healthz reports degraded, queries fall back to
// base-table plans (still correct, never from the stale cache), and Repair
// restores view matching.
func TestServerDegradedLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	execStmt(t, ts, `create view pq with schemabinding as
		select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty
		from lineitem group by l_partkey`)
	checkViews(t, srv)
	sql := "select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = 5 group by l_partkey"
	if qr := query(t, ts, sql); !qr.UsedViews {
		t.Fatal("fresh view not matched")
	}

	inj := faults.New(11)
	inj.Add(faults.Rule{Site: faults.SiteMaintainMergeAgg, Rate: 1, Limit: 1})
	srv.SetFaultInjector(inj)

	okey := srv.db.Table("orders").RowAt(0)[tpch.OOrderkey].Int()
	ins := fmt.Sprintf(`insert into lineitem values
		(%d, 5, 1, 7, 5.0, 100.0, 0.0, 0.0, 'N', 'O',
		 DATE '1995-05-05', DATE '1995-05-15', DATE '1995-05-25',
		 'NONE', 'MAIL', 'degraded test')`, okey)
	code, body := postReq(t, ts, "/exec", &ExecRequest{SQL: ins})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("faulted insert: status %d: %s", code, body)
	}
	if !strings.Contains(string(body), "pq") {
		t.Fatalf("error does not name the stale view: %s", body)
	}
	checkViews(t, srv)

	// The base row landed even though view maintenance failed: queries must
	// see it via base-table plans, not the stale view, not a cached plan.
	hr := healthz(t, ts)
	if hr.Status != "degraded" || len(hr.Stale) != 1 || hr.Stale[0] != "pq" {
		t.Fatalf("healthz = %+v", hr)
	}
	qr := query(t, ts, sql)
	if qr.Cached {
		t.Fatal("stale-epoch plan served from the cache")
	}
	if qr.UsedViews {
		t.Fatal("plan uses a stale view")
	}
	if got, want := normRows(t, qr.Rows), referenceRows(t, srv.db, sql); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("degraded answer wrong: got %v want %v", got, want)
	}
	m := srv.Metrics()
	if m.Maintenance.StaleViews != 1 || m.Maintenance.MaintenanceFailures != 1 {
		t.Fatalf("maintenance metrics: %+v", m.Maintenance)
	}

	// Recovery: repair rebuilds the view, health returns to ok, and the next
	// query re-plans (epoch bumped again) and matches the view.
	inj.SetEnabled(false)
	rep := srv.Repair()
	if len(rep.Repaired) != 1 || rep.Repaired[0] != "pq" {
		t.Fatalf("repair report: %+v", rep)
	}
	if hr := healthz(t, ts); hr.Status != "ok" {
		t.Fatalf("healthz after repair = %+v", hr)
	}
	checkViews(t, srv)
	qr = query(t, ts, sql)
	if qr.Cached {
		t.Fatal("recovery did not invalidate the cached fallback plan")
	}
	if !qr.UsedViews {
		t.Fatal("repaired view not matched")
	}
	if got, want := normRows(t, qr.Rows), referenceRows(t, srv.db, sql); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-repair answer wrong: got %v want %v", got, want)
	}
	if m := srv.Metrics(); m.Maintenance.FreshViews != 1 || m.Maintenance.RepairSuccesses != 1 {
		t.Fatalf("post-repair metrics: %+v", m.Maintenance)
	}
}

// TestStoragePanicIsContained injects a panic in the storage layer during a
// base write: the maintainer converts it into an aborted statement (422,
// applied=false) instead of letting it unwind the handler. Under the MVCC
// commit protocol the abort is total — the base table rolls back, every view
// stays Fresh, and the storage epoch does not advance, so readers on the
// prior snapshot never saw a thing.
func TestStoragePanicIsContained(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	execStmt(t, ts, `create view pq with schemabinding as
		select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty
		from lineitem group by l_partkey`)
	inj := faults.New(12)
	inj.Add(faults.Rule{Site: faults.SiteStorageInsert, Rate: 1, Limit: 1, Panic: true})
	srv.SetFaultInjector(inj)

	rowsBefore := srv.db.Table("lineitem").NumRows()
	epochBefore := srv.db.Epoch()
	okey := srv.db.Table("orders").RowAt(0)[tpch.OOrderkey].Int()
	ins := fmt.Sprintf(`insert into lineitem values
		(%d, 6, 1, 7, 5.0, 100.0, 0.0, 0.0, 'N', 'O',
		 DATE '1995-05-05', DATE '1995-05-15', DATE '1995-05-25',
		 'NONE', 'MAIL', 'panic test')`, okey)
	code, body := postReq(t, ts, "/exec", &ExecRequest{SQL: ins})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("panicking insert: status %d: %s", code, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Applied {
		t.Fatalf("aborted statement reported applied: %s", body)
	}
	if m := srv.Metrics(); m.PanicsTotal != 0 {
		t.Fatalf("panic escaped to the middleware: %+v", m)
	}
	if st, _ := srv.Maintainer().ViewState("pq"); st != maintain.Fresh {
		t.Fatalf("view state after aborted base write = %v, want fresh", st)
	}
	if got := srv.db.Table("lineitem").NumRows(); got != rowsBefore {
		t.Fatalf("base table after abort: %d rows, want %d (rollback failed)", got, rowsBefore)
	}
	if got := srv.db.Epoch(); got != epochBefore {
		t.Fatalf("epoch advanced across an aborted statement: %d -> %d", epochBefore, got)
	}

	// The fault is spent; the identical statement now succeeds, views
	// maintain incrementally, and queries see the row.
	inj.SetEnabled(false)
	execStmt(t, ts, ins)
	sql := "select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = 6 group by l_partkey"
	qr := query(t, ts, sql)
	if got, want := normRows(t, qr.Rows), referenceRows(t, srv.db, sql); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-retry answer wrong: got %v want %v", got, want)
	}
}

// TestPanicRecoveryMiddleware exercises the outermost wrapper directly: a
// handler panic becomes a 500 JSON error and a panics_total tick, and the
// server keeps serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	h := srv.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/query", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal panic: kaboom") {
		t.Fatalf("body = %q", rec.Body.String())
	}
	if m := srv.Metrics(); m.PanicsTotal != 1 || m.Errors != 1 {
		t.Fatalf("metrics after panic: panics=%d errors=%d", m.PanicsTotal, m.Errors)
	}
	// The real stack is unaffected.
	if qr := query(t, ts, "select l_partkey from lineitem where l_partkey = 1"); qr.RowCount < 0 {
		t.Fatal("server dead after panic")
	}
}

func healthz(t *testing.T, ts *httptest.Server) *HealthResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	return &hr
}

// chaosReference evaluates sql with the naive evaluator; goroutine-safe
// (returns errors instead of calling into testing.T).
func chaosReference(db *storage.Database, sql string) ([]string, error) {
	q, err := sqlparser.ParseQuery(db.Catalog, sql)
	if err != nil {
		return nil, err
	}
	rows, err := exec.RunQuery(db, q)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		row := make([]any, len(r))
		for j, v := range r {
			row[j] = valueToJSON(v)
		}
		b, err := json.Marshal(row)
		if err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out, nil
}

func chaosNorm(rows [][]any) ([]string, error) {
	out := make([]string, len(rows))
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out, nil
}

// chaosMutation is one committed /exec statement: the SQL and the storage
// epoch its commit published. Aborted statements (applied=false) never make
// the history.
type chaosMutation struct {
	epoch uint64
	sql   string
}

// chaosObservation is one /query response: the SQL, the epoch snapshot it
// executed against, and the normalized rows it returned.
type chaosObservation struct {
	epoch uint64
	sql   string
	got   []string
}

// TestChaosQueriesStayCorrect is the capstone: concurrent query and DML
// traffic with faults armed at every injection site (including panics at a
// maintenance site) and no quiescing — readers and writers overlap freely,
// with no test-side gate. The invariant is snapshot serializability: every
// /query response carries the storage epoch it executed against, every
// /exec response carries the epoch it committed (and whether the base
// mutation applied), and after the storm each recorded response must equal
// the reference evaluator's answer over the committed mutation history up
// to exactly that epoch, replayed on a pristine copy of the dataset. The
// full-length run also checks that the MVCC machinery cycled underneath:
// the epoch advanced, the version GC reclaimed superseded versions, and
// every snapshot was released by the time the storm drained.
func TestChaosQueriesStayCorrect(t *testing.T) {
	db := newTestDB(t)
	srv := New(db, Config{MaxConcurrent: 64, GCInterval: 10 * time.Millisecond})
	epochBefore := db.Epoch()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	for _, s := range []string{
		`create view pq with schemabinding as
			select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty
			from lineitem group by l_partkey`,
		`create view oc with schemabinding as
			select o_custkey, count_big(*) as cnt, sum(o_totalprice) as total
			from orders group by o_custkey`,
	} {
		execStmt(t, ts, s)
		checkViews(t, srv)
	}

	inj := faults.New(1234)
	inj.AddAll(faults.Rule{Rate: 0.08})
	inj.Add(faults.Rule{Site: faults.SiteMaintainApply, Rate: 0.05, Panic: true})
	srv.SetFaultInjector(inj)

	queries := []string{
		"select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = 950 group by l_partkey",
		"select l_partkey, count_big(*) as cnt from lineitem where l_partkey <= 5 group by l_partkey",
		"select o_custkey, sum(o_totalprice) as total from orders where o_custkey = 1 group by o_custkey",
		"select l_orderkey, l_quantity from lineitem where l_partkey = 951",
	}
	okey := db.Table("orders").RowAt(0)[tpch.OOrderkey].Int()

	iters := 60
	if testing.Short() {
		iters = 15
	}

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	var mutMu sync.Mutex
	var muts []chaosMutation
	var obsMu sync.Mutex
	var obs []chaosObservation

	// Writers target disjoint part keys, so the only cross-writer ordering
	// that matters is the epoch order the server assigns.
	for wID := 0; wID < 2; wID++ {
		wg.Add(1)
		go func(wID int) {
			defer wg.Done()
			part := 950 + wID
			for i := 0; i < iters; i++ {
				var sql string
				if i%2 == 0 {
					sql = fmt.Sprintf(`insert into lineitem values
						(%d, %d, 1, 7, 2.0, 20.0, 0.0, 0.0, 'N', 'O',
						 DATE '1995-05-05', DATE '1995-05-15', DATE '1995-05-25',
						 'NONE', 'MAIL', 'chaos')`, okey, part)
				} else {
					sql = fmt.Sprintf("delete from lineitem where l_partkey = %d", part)
				}
				code, body := postHelper(ts, "/exec", &ExecRequest{SQL: sql})
				var epoch uint64
				var applied bool
				switch code {
				case http.StatusOK:
					var er ExecResponse
					if err := json.Unmarshal(body, &er); err != nil {
						errs <- err
						return
					}
					epoch, applied = er.Epoch, true
				case http.StatusUnprocessableEntity:
					// A fault surfaced as a MaintenanceError: Applied says
					// whether the base mutation committed (views went Stale)
					// or the whole statement aborted.
					var er errorResponse
					if err := json.Unmarshal(body, &er); err != nil {
						errs <- err
						return
					}
					epoch, applied = er.Epoch, er.Applied
				default:
					// Every maintainer phase is guarded; anything but a
					// clean 200 or a maintenance 422 is a protocol bug.
					errs <- fmt.Errorf("exec %q: status %d: %s", sql, code, body)
					return
				}
				if applied {
					mutMu.Lock()
					muts = append(muts, chaosMutation{epoch: epoch, sql: sql})
					mutMu.Unlock()
				}
				if i%5 == 4 {
					srv.Repair()
				}
			}
		}(wID)
	}

	for rID := 0; rID < 4; rID++ {
		wg.Add(1)
		go func(rID int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sql := queries[(rID+i)%len(queries)]
				code, body := postHelper(ts, "/query", &QueryRequest{SQL: sql})
				if code != http.StatusOK {
					errs <- fmt.Errorf("query %q: status %d: %s", sql, code, body)
					return
				}
				var qr QueryResponse
				if err := json.Unmarshal(body, &qr); err != nil {
					errs <- err
					return
				}
				got, gerr := chaosNorm(qr.Rows)
				if gerr != nil {
					errs <- gerr
					return
				}
				obsMu.Lock()
				obs = append(obs, chaosObservation{epoch: qr.Epoch, sql: sql, got: got})
				obsMu.Unlock()
			}
		}(rID)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	if st := inj.Stats(); st.Injected == 0 {
		t.Fatal("chaos run injected no faults; the test proved nothing")
	} else {
		t.Logf("faults: %v", inj)
	}
	if ms := srv.Metrics().Storage; !testing.Short() {
		if ms.Epoch <= epochBefore {
			t.Fatalf("epoch did not advance under DML: %d -> %d", epochBefore, ms.Epoch)
		}
		if ms.VersionsReclaimed == 0 {
			t.Fatalf("version GC reclaimed nothing across %d commits: %+v", ms.Epoch, ms)
		}
		if ms.ActiveReaders != 0 {
			t.Fatalf("snapshots leaked after drain: %+v", ms)
		}
		if ms.SnapshotsLeaked != 0 {
			t.Fatalf("leak guard fired during a clean run: %+v", ms)
		}
	}

	// Serializability replay: rebuild the pristine dataset, apply the
	// committed mutations in epoch order, and check every recorded query
	// against the reference evaluator at exactly its epoch. Epochs are
	// assigned under the server's write lock, so they totally order the
	// committed history; a response pinned at epoch E must see every
	// mutation committed at or before E and none after.
	replayDB, err := tpch.NewDatabase(0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	replay := shell.NewSession(replayDB)
	sort.SliceStable(muts, func(i, j int) bool { return muts[i].epoch < muts[j].epoch })
	sort.SliceStable(obs, func(i, j int) bool { return obs[i].epoch < obs[j].epoch })
	k := 0
	for _, o := range obs {
		for k < len(muts) && muts[k].epoch <= o.epoch {
			if err := replay.Execute(muts[k].sql, io.Discard); err != nil {
				t.Fatalf("replaying %q: %v", muts[k].sql, err)
			}
			k++
		}
		want, werr := chaosReference(replayDB, o.sql)
		if werr != nil {
			t.Fatal(werr)
		}
		if fmt.Sprint(o.got) != fmt.Sprint(want) {
			t.Fatalf("snapshot divergence at epoch %d on %q: got %v want %v", o.epoch, o.sql, o.got, want)
		}
	}
	t.Logf("replayed %d committed mutations against %d query observations", len(muts), len(obs))

	// The storm is over: disable faults and repair whatever is left,
	// force-releasing any quarantined view.
	inj.SetEnabled(false)
	m := srv.Maintainer()
	for _, st := range []maintain.State{maintain.Stale, maintain.Quarantined} {
		for _, name := range m.ViewsInState(st) {
			if err := m.RepairView(name, true); err != nil {
				t.Fatalf("final repair of %s: %v", name, err)
			}
		}
	}
	db.RefreshStats()
	for _, st := range []maintain.State{maintain.Stale, maintain.Rebuilding, maintain.Quarantined} {
		if got := m.ViewsInState(st); len(got) != 0 {
			t.Fatalf("views still %v after final repair: %v", st, got)
		}
	}
	if hr := healthz(t, ts); hr.Status != "ok" {
		t.Fatalf("healthz after recovery = %+v", hr)
	}
	checkViews(t, srv)

	// Fully healed: answers still match, and views are matchable again.
	usedView := false
	for _, sql := range queries {
		qr := query(t, ts, sql)
		got := normRows(t, qr.Rows)
		want := referenceRows(t, db, sql)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("post-chaos divergence on %q: got %v want %v", sql, got, want)
		}
		usedView = usedView || qr.UsedViews
	}
	if !usedView {
		t.Error("no query matched a view after recovery")
	}
	t.Logf("maintenance metrics: %+v", srv.Metrics().Maintenance)
}
