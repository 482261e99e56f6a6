package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"matview/internal/autopilot"
	"matview/internal/exec"
	"matview/internal/faults"
	"matview/internal/maintain"
	"matview/internal/spjg"
	"matview/internal/sqlparser"
	"matview/internal/tpch"
)

func mustParseDef(t *testing.T, srv *Server, sql string) *spjg.Query {
	t.Helper()
	def, err := sqlparser.ParseQuery(srv.db.Catalog, sql)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// pilotReaders hammers sql against the server from n goroutines, comparing
// every 200 response to want (precomputed with the reference evaluator).
// The returned stop func halts them and fails the test on any mismatch.
func pilotReaders(t *testing.T, ts *httptest.Server, sql string, want []string, n int) func() {
	t.Helper()
	wantJoined := strings.Join(want, "\n")
	stop := make(chan struct{})
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body := postHelper(ts, "/query", &QueryRequest{SQL: sql})
				if code != http.StatusOK {
					errs <- fmt.Errorf("query status %d: %s", code, body)
					return
				}
				var qr QueryResponse
				if err := json.Unmarshal(body, &qr); err != nil {
					errs <- err
					return
				}
				got, err := chaosNorm(qr.Rows)
				if err != nil {
					errs <- err
					return
				}
				if strings.Join(got, "\n") != wantJoined {
					errs <- fmt.Errorf("reader answer diverged: got %v want %v", got, want)
					return
				}
			}
		}()
	}
	return func() {
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("concurrent reader: %v", err)
		}
	}
}

const pilotRollupDef = `select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty
	from lineitem group by l_partkey`

// TestAutopilotEpochDiscipline drives the background-create path the
// controller uses and checks the epoch contract around it: traffic running
// concurrently with CreateView never sees a wrong answer (a half-built view
// would give one), the install bumps the catalog epoch exactly once (next
// query re-plans onto the view, then caches), and DropView invalidates any
// cached plan that embedded the view.
func TestAutopilotEpochDiscipline(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	def := mustParseDef(t, srv, pilotRollupDef)

	sqlSeq := "select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = 9 group by l_partkey"
	refSeq := referenceRows(t, srv.db, sqlSeq)
	check := func(qr *QueryResponse, label string) {
		t.Helper()
		if got := normRows(t, qr.Rows); fmt.Sprint(got) != fmt.Sprint(refSeq) {
			t.Fatalf("%s: wrong rows: got %v want %v", label, got, refSeq)
		}
	}

	// Prime the plan cache on a base-table plan.
	if qr := query(t, ts, sqlSeq); qr.UsedViews {
		t.Fatal("no view registered yet, but plan used one")
	}
	if qr := query(t, ts, sqlSeq); !qr.Cached {
		t.Fatal("repeat query not served from plan cache")
	}

	// Concurrent readers on a different fingerprint while the view builds.
	sqlReader := "select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = 5 group by l_partkey"
	refReader, err := chaosReference(srv.db, sqlReader)
	if err != nil {
		t.Fatal(err)
	}
	stopReaders := pilotReaders(t, ts, sqlReader, refReader, 3)

	if err := srv.CreateView("auto_epoch", def); err != nil {
		t.Fatalf("CreateView: %v", err)
	}
	if st, _ := srv.Maintainer().ViewState("auto_epoch"); st != maintain.Fresh {
		t.Fatalf("state after CreateView = %v, want Fresh", st)
	}
	checkViews(t, srv)
	stopReaders()

	// The install bumped the epoch: the cached base-table plan is dead, the
	// re-plan matches the view, and only then does caching resume — so the
	// epoch moved exactly once.
	qr := query(t, ts, sqlSeq)
	if qr.Cached {
		t.Fatal("stale pre-install plan served from the cache")
	}
	if !qr.UsedViews {
		t.Fatal("installed view not matched")
	}
	check(qr, "post-install")
	if qr = query(t, ts, sqlSeq); !qr.Cached || !qr.UsedViews {
		t.Fatalf("second post-install query: cached=%v usedViews=%v, want true/true", qr.Cached, qr.UsedViews)
	}

	// Per-view usage accounting feeds the controller and /metrics.
	if n := srv.ViewUsage()["auto_epoch"]; n < 1 {
		t.Fatalf("view usage = %d, want >= 1", n)
	}
	if m := srv.Metrics(); m.ViewUsage["auto_epoch"] < 1 {
		t.Fatalf("metrics view_usage = %+v", m.ViewUsage)
	}

	// Drop: the cached plan embeds a scan of auto_epoch and must die with it.
	if err := srv.DropView("auto_epoch"); err != nil {
		t.Fatalf("DropView: %v", err)
	}
	checkViews(t, srv)
	qr = query(t, ts, sqlSeq)
	if qr.Cached {
		t.Fatal("plan over a dropped view served from the cache")
	}
	if qr.UsedViews {
		t.Fatal("plan scans a dropped view")
	}
	check(qr, "post-drop")
	if qr = query(t, ts, sqlSeq); !qr.Cached {
		t.Fatal("post-drop plan not re-cached")
	}
	if _, ok := srv.Maintainer().ViewState("auto_epoch"); ok {
		t.Fatal("dropped view still in lifecycle ledger")
	}
	if _, ok := srv.ViewUsage()["auto_epoch"]; ok {
		t.Fatal("dropped view still in usage accounting")
	}
}

// TestAutopilotChaosMidCreate arms a fault at the deferred-build site and
// fires CreateView with traffic in flight: the build fails, the view lands in
// Quarantined, it is never matched by any plan, every concurrent 200 stays
// correct, and after dropping the wreck a clean retry reaches Fresh.
func TestAutopilotChaosMidCreate(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	def := mustParseDef(t, srv, pilotRollupDef)

	inj := faults.New(23)
	inj.Add(faults.Rule{Site: faults.SiteMaintainRecompute, Rate: 1, Limit: 1})
	srv.SetFaultInjector(inj)

	sql := "select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = 3 group by l_partkey"
	ref, err := chaosReference(srv.db, sql)
	if err != nil {
		t.Fatal(err)
	}
	stopReaders := pilotReaders(t, ts, sql, ref, 3)

	if err := srv.CreateView("auto_chaos", def); err == nil {
		t.Fatal("faulted CreateView reported success")
	}
	if st, _ := srv.Maintainer().ViewState("auto_chaos"); st != maintain.Quarantined {
		t.Fatalf("state after faulted build = %v, want Quarantined", st)
	}
	if hr := healthz(t, ts); len(hr.Quarantined) != 1 || hr.Quarantined[0] != "auto_chaos" {
		t.Fatalf("healthz does not report the quarantined view: %+v", hr)
	}
	checkViews(t, srv)

	// The quarantined wreck is invisible to the optimizer: plans keep using
	// base tables and answers keep matching the reference.
	qr := query(t, ts, sql)
	if qr.UsedViews {
		t.Fatal("plan matched a quarantined view")
	}
	if got := normRows(t, qr.Rows); fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Fatalf("answer during quarantine: got %v want %v", got, ref)
	}
	stopReaders()

	// Controller error path: drop the wreck, retry clean, reach Fresh.
	if err := srv.DropView("auto_chaos"); err != nil {
		t.Fatalf("drop of quarantined view: %v", err)
	}
	checkViews(t, srv)
	inj.SetEnabled(false)
	if err := srv.CreateView("auto_retry", def); err != nil {
		t.Fatalf("clean retry: %v", err)
	}
	if st, _ := srv.Maintainer().ViewState("auto_retry"); st != maintain.Fresh {
		t.Fatalf("state after retry = %v, want Fresh", st)
	}
	checkViews(t, srv)
	qr = query(t, ts, sql)
	if !qr.UsedViews {
		t.Fatal("retried view not matched")
	}
	if got := normRows(t, qr.Rows); fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Fatalf("answer after retry: got %v want %v", got, ref)
	}
}

// TestExecDropsQuarantinedAutopilotView: an autopilot create whose build
// faults leaves a quarantined view that the optimizer never heard of. /exec
// DROP VIEW removes it from every registry and from /healthz, and a CREATE
// VIEW of the same name afterwards is one view, maintained once: it equals a
// recompute after an INSERT and after a DELETE.
func TestExecDropsQuarantinedAutopilotView(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	def := mustParseDef(t, srv, pilotRollupDef)
	inj := faults.New(29)
	inj.Add(faults.Rule{Site: faults.SiteMaintainRecompute, Rate: 1, Limit: 1})
	srv.SetFaultInjector(inj)
	if err := srv.CreateView("apv", def); err == nil {
		t.Fatal("faulted CreateView reported success")
	}
	checkViews(t, srv)
	if hr := healthz(t, ts); len(hr.Quarantined) != 1 || hr.Quarantined[0] != "apv" {
		t.Fatalf("healthz does not report the quarantined view: %+v", hr)
	}

	execStmt(t, ts, "drop view apv")
	checkViews(t, srv)
	if hr := healthz(t, ts); hr.Status != "ok" || len(hr.Quarantined) != 0 {
		t.Fatalf("healthz after drop = %+v, want ok", hr)
	}
	if _, ok := srv.Maintainer().ViewState("apv"); ok {
		t.Fatal("dropped view still in the lifecycle ledger")
	}

	execStmt(t, ts, "create view apv with schemabinding as "+pilotRollupDef)
	checkViews(t, srv)
	if n := len(srv.Maintainer().Views()); n != 1 {
		t.Fatalf("maintainer holds %d views, want 1", n)
	}
	equalsRecompute := func(when string) {
		t.Helper()
		want, err := exec.RunQuery(srv.db, def)
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.db.View("apv").Rows(); !exec.SameRows(got, want) {
			t.Fatalf("after %s apv holds %d rows, a recompute %d", when, len(got), len(want))
		}
	}
	okey := srv.db.Table("orders").RowAt(0)[tpch.OOrderkey].Int()
	execStmt(t, ts, fmt.Sprintf(`insert into lineitem values
		(%d, 952, 1, 7, 3.0, 30.0, 0.0, 0.0, 'N', 'O',
		 DATE '1995-05-05', DATE '1995-05-15', DATE '1995-05-25',
		 'NONE', 'MAIL', 'recreated')`, okey))
	equalsRecompute("INSERT")
	execStmt(t, ts, "delete from lineitem where l_partkey = 952")
	equalsRecompute("DELETE")
	checkViews(t, srv)
}

func pilotStatus(t *testing.T, ts *httptest.Server) autopilot.Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/autopilot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st autopilot.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAutopilotSmoke is the closed loop end to end, and doubles as the CI
// smoke leg (go test -race -run Autopilot ./internal/server/): a server with
// a fast control loop sees a repetitive point-lookup workload, mines it, and
// with no operator action creates a rollup that subsequent traffic matches.
func TestAutopilotSmoke(t *testing.T) {
	srv, ts := newTestServer(t, Config{Autopilot: &autopilot.Config{
		Interval:         40 * time.Millisecond,
		MaxViews:         2,
		TopK:             8,
		MinSamples:       8,
		LocalSearchMoves: 48,
		CreateAfterHits:  1,
		DropAfterMisses:  8,
		Recorder:         autopilot.RecorderConfig{HalfLife: 10 * time.Second},
	}})
	defer srv.Autopilot().Stop()

	const pilotSQL = "select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = %d group by l_partkey"
	deadline := time.Now().Add(15 * time.Second)
	var st autopilot.Status
	for time.Now().Before(deadline) {
		for k := 1; k <= 6; k++ {
			query(t, ts, fmt.Sprintf(pilotSQL, k))
		}
		if st = pilotStatus(t, ts); st.Creates >= 1 && len(st.Managed) > 0 {
			break
		}
	}
	if st.Creates < 1 || len(st.Managed) == 0 {
		t.Fatalf("autopilot never created a view: %+v", st)
	}
	name := st.Managed[0].Name

	// The managed view came up through the deferred path and is Fresh.
	if vs, ok := srv.Maintainer().ViewState(name); !ok || vs != maintain.Fresh {
		t.Fatalf("managed view %q state = %v, want Fresh", name, vs)
	}
	checkViews(t, srv)

	// Traffic now matches it, correctly, and usage is attributed.
	sql := fmt.Sprintf(pilotSQL, 2)
	qr := query(t, ts, sql)
	if !qr.UsedViews {
		t.Fatalf("workload query does not use the managed view %q", name)
	}
	if got, want := normRows(t, qr.Rows), referenceRows(t, srv.db, sql); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("managed-view answer wrong: got %v want %v", got, want)
	}
	if n := srv.ViewUsage()[name]; n < 1 {
		t.Fatalf("usage for %q = %d, want >= 1", name, n)
	}

	// /metrics carries the loop's counters.
	m := srv.Metrics()
	if m.Autopilot == nil || m.Autopilot.Creates < 1 || m.Autopilot.Recorded == 0 {
		t.Fatalf("autopilot metrics: %+v", m.Autopilot)
	}
	if m.ViewUsage[name] < 1 {
		t.Fatalf("metrics view_usage missing %q: %+v", name, m.ViewUsage)
	}

	// Kill switch over HTTP: disable, observe, re-enable.
	if code, body := postReq(t, ts, "/autopilot", &autopilotToggle{Enabled: false}); code != http.StatusOK {
		t.Fatalf("POST /autopilot: %d %s", code, body)
	}
	if st := pilotStatus(t, ts); st.Enabled {
		t.Fatal("kill switch did not disable the loop")
	}
	if code, _ := postReq(t, ts, "/autopilot", &autopilotToggle{Enabled: true}); code != http.StatusOK {
		t.Fatal("re-enable failed")
	}
}
