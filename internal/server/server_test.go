package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"matview/internal/exec"
	"matview/internal/sqlparser"
	"matview/internal/storage"
	"matview/internal/tpch"
)

func newTestDB(t *testing.T) *storage.Database {
	t.Helper()
	db, err := tpch.NewDatabase(0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(newTestDB(t), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postReq(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func query(t *testing.T, ts *httptest.Server, sql string) *QueryResponse {
	t.Helper()
	code, body := postReq(t, ts, "/query", &QueryRequest{SQL: sql})
	if code != http.StatusOK {
		t.Fatalf("POST /query %q: status %d: %s", sql, code, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	return &qr
}

func execStmt(t *testing.T, ts *httptest.Server, sql string) string {
	t.Helper()
	code, body := postReq(t, ts, "/exec", &ExecRequest{SQL: sql})
	if code != http.StatusOK {
		t.Fatalf("POST /exec %q: status %d: %s", sql, code, body)
	}
	var er ExecResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	return er.Message
}

// checkViews holds the server's view registries to Session.CheckViews under
// the shared lock, which excludes every view operation.
func checkViews(t *testing.T, srv *Server) {
	t.Helper()
	srv.mu.RLock()
	err := srv.sess.CheckViews()
	srv.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
}

// normRows renders rows as sorted JSON strings so server responses (whose
// numbers decode as float64) compare equal to reference rows.
func normRows(t *testing.T, rows [][]any) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

// referenceRows evaluates sql with the naive reference evaluator against an
// identical database (same sf/seed, so contents match byte for byte).
func referenceRows(t *testing.T, db *storage.Database, sql string) []string {
	t.Helper()
	q, err := sqlparser.ParseQuery(db.Catalog, sql)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.RunQuery(db, q)
	if err != nil {
		t.Fatal(err)
	}
	conv := make([][]any, len(rows))
	for i, r := range rows {
		row := make([]any, len(r))
		for j, v := range r {
			row[j] = valueToJSON(v)
		}
		conv[i] = row
	}
	return normRows(t, conv)
}

func TestServerQueryMatchesReference(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	execStmt(t, ts, `create view pq with schemabinding as
		select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty
		from lineitem group by l_partkey`)
	checkViews(t, srv)
	execStmt(t, ts, "create unique index pq_idx on pq (l_partkey)")
	checkViews(t, srv)

	for _, sql := range []string{
		"select l_partkey, sum(l_quantity) as q from lineitem where l_partkey = 5 group by l_partkey",
		"select l_partkey, count_big(*) as cnt from lineitem group by l_partkey",
		"select l_orderkey, l_quantity from lineitem where l_partkey <= 10",
		"select o_custkey, sum(o_totalprice) as total from orders group by o_custkey",
	} {
		qr := query(t, ts, sql)
		got := normRows(t, qr.Rows)
		want := referenceRows(t, srv.db, sql)
		if len(got) != len(want) {
			t.Fatalf("%q: %d rows, reference has %d", sql, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q row %d: got %s, want %s", sql, i, got[i], want[i])
			}
		}
	}

	// The rollup over the indexed view must be answered from it.
	qr := query(t, ts, "select l_partkey, sum(l_quantity) as q from lineitem where l_partkey = 5 group by l_partkey")
	if !qr.UsedViews {
		t.Error("point rollup did not use the materialized view")
	}
}

func TestPlanCacheHitSkipsViewMatching(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	execStmt(t, ts, `create view pq with schemabinding as
		select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty
		from lineitem group by l_partkey`)

	sql := "select l_partkey, sum(l_quantity) as q from lineitem where l_partkey = 5 group by l_partkey"
	first := query(t, ts, sql)
	if first.Cached {
		t.Fatal("first request reported a cache hit")
	}
	m1 := srv.Metrics()
	if m1.Optimizer.Invocations == 0 {
		t.Fatal("miss path did not run the view-matching rule")
	}

	second := query(t, ts, sql)
	if !second.Cached {
		t.Fatal("repeat request missed the plan cache")
	}
	// Same shape up to whitespace and case also hits.
	third := query(t, ts, "SELECT   l_partkey, SUM(l_quantity) AS q FROM lineitem WHERE l_partkey=5 GROUP BY l_partkey")
	if !third.Cached {
		t.Fatal("whitespace/case variant missed the plan cache")
	}
	m2 := srv.Metrics()
	if m2.Optimizer.Invocations != m1.Optimizer.Invocations {
		t.Fatalf("cache hits ran view matching: invocations %d -> %d",
			m1.Optimizer.Invocations, m2.Optimizer.Invocations)
	}
	if m2.PlanCache.Hits != m1.PlanCache.Hits+2 {
		t.Fatalf("hit counter = %d, want %d", m2.PlanCache.Hits, m1.PlanCache.Hits+2)
	}
	if !second.UsedViews || len(second.Rows) != len(first.Rows) {
		t.Fatalf("cached answer differs: %+v vs %+v", second, first)
	}
}

func TestDDLInvalidatesCachedPlans(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sql := "select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = 7 group by l_partkey"

	base := query(t, ts, sql)
	if base.Cached || base.UsedViews {
		t.Fatalf("baseline: %+v", base)
	}
	if !query(t, ts, sql).Cached {
		t.Fatal("repeat missed cache")
	}
	baseRows := normRows(t, base.Rows)

	// CREATE VIEW bumps the epoch: the next request must re-plan (no stale
	// plan) and pick up the new view.
	execStmt(t, ts, `create view pq with schemabinding as
		select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty
		from lineitem group by l_partkey`)
	checkViews(t, srv)
	afterCreate := query(t, ts, sql)
	if afterCreate.Cached {
		t.Fatal("stale plan served after CREATE VIEW")
	}
	if !afterCreate.UsedViews {
		t.Fatal("re-planned query ignored the new view")
	}
	got := normRows(t, afterCreate.Rows)
	if fmt.Sprint(got) != fmt.Sprint(baseRows) {
		t.Fatalf("view plan changed the answer: %v vs %v", got, baseRows)
	}
	if inv := srv.Metrics().PlanCache.Invalidations; inv == 0 {
		t.Fatal("no invalidation recorded")
	}

	// CREATE INDEX on the view bumps it again (plan may switch to a seek).
	execStmt(t, ts, "create unique index pq_idx on pq (l_partkey)")
	checkViews(t, srv)
	afterIndex := query(t, ts, sql)
	if afterIndex.Cached {
		t.Fatal("stale plan served after CREATE INDEX")
	}

	// DROP VIEW: back to base-table plans, again without serving staleness.
	execStmt(t, ts, "drop view pq")
	checkViews(t, srv)
	afterDrop := query(t, ts, sql)
	if afterDrop.Cached {
		t.Fatal("stale plan served after DROP VIEW")
	}
	if afterDrop.UsedViews {
		t.Fatal("plan uses a dropped view")
	}
	got = normRows(t, afterDrop.Rows)
	if fmt.Sprint(got) != fmt.Sprint(baseRows) {
		t.Fatalf("post-drop answer differs: %v vs %v", got, baseRows)
	}
}

func TestDMLKeepsCachedPlansCorrect(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	execStmt(t, ts, `create view pq with schemabinding as
		select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty
		from lineitem group by l_partkey`)
	sql := "select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = 777 group by l_partkey"
	if qr := query(t, ts, sql); qr.RowCount != 0 {
		t.Fatalf("part 777 exists before insert: %+v", qr)
	}

	// DML does not bump the epoch — the plan stays cached — but incremental
	// maintenance keeps the view's contents current, so the cached plan
	// returns the new row.
	okey := srv.db.Table("orders").RowAt(0)[tpch.OOrderkey].Int()
	execStmt(t, ts, fmt.Sprintf(`insert into lineitem values
		(%d, 777, 1, 7, 5.0, 100.0, 0.0, 0.0, 'N', 'O',
		 DATE '1995-05-05', DATE '1995-05-15', DATE '1995-05-25',
		 'NONE', 'MAIL', 'server test')`, okey))
	qr := query(t, ts, sql)
	if !qr.Cached {
		t.Fatal("DML invalidated the plan cache")
	}
	if qr.RowCount != 1 {
		t.Fatalf("maintained view missed the insert: %+v", qr)
	}
	execStmt(t, ts, "delete from lineitem where l_partkey = 777")
	if qr := query(t, ts, sql); qr.RowCount != 0 {
		t.Fatalf("maintained view missed the delete: %+v", qr)
	}
}

func TestQueryAndExecRouting(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// DML/DDL on /query is rejected.
	for _, sql := range []string{
		"insert into lineitem values (1)",
		"create view v with schemabinding as select l_partkey, count_big(*) as c from lineitem group by l_partkey",
		"drop view v",
	} {
		if code, _ := postReq(t, ts, "/query", &QueryRequest{SQL: sql}); code != http.StatusBadRequest {
			t.Errorf("/query %q: status %d, want 400", sql, code)
		}
	}
	// SELECT on /exec is rejected.
	if code, _ := postReq(t, ts, "/exec", &ExecRequest{SQL: "select l_partkey from lineitem"}); code != http.StatusBadRequest {
		t.Errorf("/exec select: status %d, want 400", code)
	}
	// Malformed SQL and malformed JSON are 400s.
	if code, _ := postReq(t, ts, "/query", &QueryRequest{SQL: "selec t nonsense"}); code != http.StatusBadRequest {
		t.Errorf("malformed sql: status %d, want 400", code)
	}
	if code, _ := postReq(t, ts, "/query", &QueryRequest{}); code != http.StatusBadRequest {
		t.Errorf("empty sql: status %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json: status %d, want 400", resp.StatusCode)
	}
	// Semantic errors (unknown column) are 400 at parse time.
	if code, _ := postReq(t, ts, "/query", &QueryRequest{SQL: "select nope from lineitem"}); code != http.StatusBadRequest {
		t.Errorf("unknown column: status %d, want 400", code)
	}
}

func TestExplain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := postReq(t, ts, "/query", &QueryRequest{
		SQL:     "select l_partkey from lineitem where l_partkey = 5",
		Explain: true,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qr.Plan, "TableScan") {
		t.Fatalf("plan = %q", qr.Plan)
	}
	if len(qr.Rows) != 0 {
		t.Fatal("explain executed the query")
	}
}

func TestRequestTimeout(t *testing.T) {
	srv, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	code, body := postReq(t, ts, "/query", &QueryRequest{SQL: "select l_partkey from lineitem"})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, body)
	}
	if m := srv.Metrics(); m.Timeouts != 1 {
		t.Fatalf("timeouts = %d", m.Timeouts)
	}
}

func TestAdmissionControl(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1})
	srv.sem <- struct{}{} // occupy the only slot
	b, _ := json.Marshal(&QueryRequest{SQL: "select l_partkey from lineitem"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 lacks Retry-After")
	}
	<-srv.sem
	if qr := query(t, ts, "select l_partkey from lineitem where l_partkey = 1"); qr.RowCount < 0 {
		t.Fatal("freed slot did not admit")
	}
	if m := srv.Metrics(); m.Rejected != 1 {
		t.Fatalf("rejected = %d", m.Rejected)
	}
}

func TestShutdownDrains(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	// With a request in flight, Shutdown must wait (and time out here).
	srv.inflight.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown with in-flight request = %v, want deadline exceeded", err)
	}
	// Once the request finishes, the drain completes.
	srv.inflight.Done()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after drain = %v", err)
	}
	// A draining server turns traffic away and fails its health check.
	if code, _ := postReq(t, ts, "/query", &QueryRequest{SQL: "select l_partkey from lineitem"}); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server admitted a query (status %d)", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
}

func TestMaxRowsTruncation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRows: 3})
	qr := query(t, ts, "select l_orderkey from lineitem")
	if !qr.Truncated || len(qr.Rows) != 3 || qr.RowCount <= 3 {
		t.Fatalf("truncation: rows=%d rowCount=%d truncated=%v", len(qr.Rows), qr.RowCount, qr.Truncated)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	query(t, ts, "select l_partkey from lineitem where l_partkey = 1")
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Queries != 1 || m.Latency.Samples != 1 || m.PlanCache.Capacity == 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestConcurrentTraffic(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 128})
	execStmt(t, ts, `create view pq with schemabinding as
		select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty
		from lineitem group by l_partkey`)
	shapes := []string{
		"select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = %d group by l_partkey",
		"select o_custkey, sum(o_totalprice) as total from orders where o_custkey = %d group by o_custkey",
	}
	okey := srv.db.Table("orders").RowAt(0)[tpch.OOrderkey].Int()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				sql := fmt.Sprintf(shapes[i%len(shapes)], 1+(c+i)%8)
				code, body := postHelper(ts, "/query", &QueryRequest{SQL: sql})
				if code != http.StatusOK {
					errs <- fmt.Errorf("query %q: %d %s", sql, code, body)
					return
				}
			}
		}(c)
	}
	// A concurrent writer exercises the read/write lock split.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			ins := fmt.Sprintf(`insert into lineitem values
				(%d, 900, 1, 7, 1.0, 10.0, 0.0, 0.0, 'N', 'O',
				 DATE '1995-05-05', DATE '1995-05-15', DATE '1995-05-25',
				 'NONE', 'MAIL', 'concurrent')`, okey)
			code, body := postHelper(ts, "/exec", &ExecRequest{SQL: ins})
			if code != http.StatusOK {
				errs <- fmt.Errorf("insert: %d %s", code, body)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m := srv.Metrics(); m.Errors != 0 {
		t.Fatalf("server recorded %d errors", m.Errors)
	}
	// The maintained view reflects every concurrent insert.
	qr := query(t, ts, "select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = 900 group by l_partkey")
	if qr.RowCount != 1 {
		t.Fatalf("view missed concurrent inserts: %+v", qr)
	}
}

// postHelper is postReq without *testing.T so goroutines can use it.
func postHelper(ts *httptest.Server, path string, body any) (int, []byte) {
	b, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestRequestBodyIsOneJSONObject: every endpoint that reads a body accepts
// exactly one JSON object, surrounding whitespace aside — a second value or
// garbage after it used to be ignored — and still refuses unknown fields and
// bodies over 1 MB.
func TestRequestBodyIsOneJSONObject(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for path, ok := range map[string]string{
		"/query":     `{"sql":"select l_partkey from lineitem where l_partkey = 1"}`,
		"/exec":      `{"sql":"delete from lineitem where l_orderkey = -1"}`,
		"/autopilot": `{"enabled":true}`,
	} {
		if code := post(path, " \n"+ok+"\r\n\t "); code != http.StatusOK {
			t.Errorf("%s: one object in whitespace: status %d, want 200", path, code)
		}
		for _, tail := range []string{" trailing {{{", "{}", ok, "0", ","} {
			if code := post(path, ok+tail); code != http.StatusBadRequest {
				t.Errorf("%s: body followed by %q: status %d, want 400", path, tail, code)
			}
		}
		if code := post(path, `{"nope":1,`+ok[1:]); code != http.StatusBadRequest {
			t.Errorf("%s: unknown field: status %d, want 400", path, code)
		}
		if code := post(path, ok[:len(ok)-1]+`,"pad":"`+strings.Repeat("x", 1<<20)+`"}`); code != http.StatusBadRequest {
			t.Errorf("%s: body over 1 MB: status %d, want 400", path, code)
		}
	}
	if n := srv.Metrics().Errors; n != 3*7 {
		t.Errorf("%d refused bodies counted as %d errors", 3*7, n)
	}
}
