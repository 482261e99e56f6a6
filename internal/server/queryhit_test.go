package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"matview/internal/exec"
	"matview/internal/sqlparser"
	"matview/internal/storage"
	"matview/internal/tpch"
)

// hitFixture is a server whose plan cache already holds every statement of
// two small pools — point rollups answered by an index seek on a view, and
// range rollups answered by a view scan with a compensating predicate — the
// two request classes of the benchmark's serve_hot workload.
type hitFixture struct {
	srv    *Server
	h      http.Handler
	points [][]byte // request bodies
	ranges [][]byte
}

func newHitFixture(tb testing.TB) *hitFixture {
	tb.Helper()
	db, err := tpch.NewDatabase(0.01, 1)
	if err != nil {
		tb.Fatal(err)
	}
	f := &hitFixture{srv: New(db, DefaultConfig())}
	f.h = f.srv.Handler()
	for _, ddl := range []string{
		"create view qh_pq with schemabinding as select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty from lineitem group by l_partkey",
		"create unique index qh_pq_idx on qh_pq (l_partkey)",
		"create view qh_oc with schemabinding as select o_custkey, count_big(*) as cnt, sum(o_totalprice) as total from orders group by o_custkey",
	} {
		if code, body := f.call("/exec", mustJSON(&ExecRequest{SQL: ddl})); code != http.StatusOK {
			tb.Fatalf("%s: status %d: %s", ddl, code, body)
		}
	}
	for i := 1; i <= 16; i++ {
		f.points = append(f.points, mustJSON(&QueryRequest{SQL: fmt.Sprintf(
			"select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = %d group by l_partkey", 17*i)}))
		f.ranges = append(f.ranges, mustJSON(&QueryRequest{SQL: fmt.Sprintf(
			"select o_custkey, sum(o_totalprice) as total from orders where o_custkey >= %d and o_custkey <= %d group by o_custkey", 31*i, 31*i+8)}))
	}
	for _, body := range append(append([][]byte(nil), f.points...), f.ranges...) {
		for pass := 0; pass < 2; pass++ { // second pass is the hit
			code, out := f.call("/query", body)
			var qr QueryResponse
			if code != http.StatusOK || json.Unmarshal(out, &qr) != nil {
				tb.Fatalf("%s: status %d: %s", body, code, out)
			}
			if pass == 1 && (!qr.Cached || !qr.UsedViews || qr.RowCount == 0) {
				tb.Fatalf("%s: not a cache hit answered from a view: %s", body, out)
			}
		}
	}
	tb.Cleanup(func() { f.srv.Shutdown(context.Background()) })
	return f
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// reusedCall is an in-memory request and response writer that one goroutine
// reuses across calls, so what a call allocates is the handler's own.
type reusedCall struct {
	req    *http.Request
	body   bytes.Reader
	header http.Header
	out    bytes.Buffer
	code   int
}

func newReusedCall(path string) *reusedCall {
	c := &reusedCall{header: http.Header{}}
	c.req, _ = http.NewRequest(http.MethodPost, path, nil)
	c.req.Body = io.NopCloser(&c.body)
	return c
}

func (c *reusedCall) Header() http.Header         { return c.header }
func (c *reusedCall) WriteHeader(code int)        { c.code = code }
func (c *reusedCall) Write(p []byte) (int, error) { return c.out.Write(p) }

func (c *reusedCall) do(h http.Handler, body []byte) (int, []byte) {
	c.body.Reset(body)
	c.out.Reset()
	c.code = http.StatusOK
	h.ServeHTTP(c, c.req)
	return c.code, c.out.Bytes()
}

func (f *hitFixture) call(path string, body []byte) (int, []byte) {
	return newReusedCall(path).do(f.h, body)
}

// BenchmarkQueryHit is the /query hit path end to end through the handler —
// decode, fingerprint, plan cache, snapshot, execute, encode — per request
// class; B/op is the figure the allocation guard in alloc_test.go bounds.
func BenchmarkQueryHit(b *testing.B) {
	f := newHitFixture(b)
	for _, class := range []struct {
		name   string
		bodies [][]byte
	}{{"point", f.points}, {"range", f.ranges}} {
		b.Run(class.name, func(b *testing.B) {
			c := newReusedCall("/query")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if code, out := c.do(f.h, class.bodies[i%len(class.bodies)]); code != http.StatusOK {
					b.Fatalf("status %d: %s", code, out)
				}
			}
		})
	}
}

// TestQueryHitConcurrentRange: four goroutines execute one cached range
// plan at once — one compiled scan filter, bound by each execution to its
// own snapshot — and every answer equals the reference evaluator's.
func TestQueryHitConcurrentRange(t *testing.T) {
	f := newHitFixture(t)
	var qr QueryRequest
	if err := json.Unmarshal(f.ranges[3], &qr); err != nil {
		t.Fatal(err)
	}
	key, err := sqlparser.Fingerprint(qr.SQL)
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := f.srv.cache.Get(key, f.srv.opt.CatalogEpoch())
	if !ok || !strings.Contains(exec.Explain(cp.Res.Plan), "ViewScan") {
		t.Fatalf("fixture statement is not a cached view scan: %v", cp)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				snap := f.srv.db.Snapshot()
				got, err := cp.Res.Plan.Run(snap)
				want, rerr := exec.RunReference(snap, cp.Res.Plan)
				snap.Release()
				if err != nil || rerr != nil || len(got) == 0 || !exec.SameRows(got, want) {
					errs <- fmt.Errorf("run %d: %d rows (%v), reference %d rows (%v)", k, len(got), err, len(want), rerr)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSeekResultSurvivesMaintenance: the rows a view seek returned are the
// caller's own. A statement that maintains the same view row afterwards —
// here through /exec, so by the real delta path — changes what the next
// query sees and nothing about the earlier result.
func TestSeekResultSurvivesMaintenance(t *testing.T) {
	f := newHitFixture(t)
	const sql = "select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = 17 group by l_partkey"
	key, err := sqlparser.Fingerprint(sql)
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := f.srv.cache.Get(key, f.srv.opt.CatalogEpoch())
	if !ok || !strings.Contains(exec.Explain(cp.Res.Plan), "ViewSeek") {
		t.Fatalf("fixture statement is not a cached view seek: %v", cp)
	}
	seek := func() []storage.Row {
		snap := f.srv.db.Snapshot()
		defer snap.Release()
		rows, err := cp.Res.Plan.Run(snap)
		if err != nil || len(rows) != 1 {
			t.Fatalf("seek: %v, %v", rows, err)
		}
		return rows
	}
	before := seek()
	qty := before[0][1].Float()
	kept := fmt.Sprint(before)
	dml := "insert into lineitem values (7000001, 17, 1, 1, 5, 100.0, 0.0, 0.0, 'N', 'O', '1995-01-01', '1995-01-02', '1995-01-03', 'NONE', 'MAIL', 'x')"
	if code, body := f.call("/exec", mustJSON(&ExecRequest{SQL: dml})); code != http.StatusOK {
		t.Fatalf("insert: status %d: %s", code, body)
	}
	if after := seek(); after[0][1].Float() != qty+5 {
		t.Fatalf("view not maintained: qty %v, want %v", after[0][1].Float(), qty+5)
	}
	if fmt.Sprint(before) != kept || before[0][1].Float() != qty {
		t.Fatalf("maintenance reached into an earlier seek result: %v, was %s", before, kept)
	}
}

// TestQueryHitRangeReadsOneBlock: qh_oc is stored in the order of its
// grouping column, so its two blocks hold disjoint key ranges and each cached
// range rollup's zone test leaves one of them: the scan counters show one
// block scanned and one skipped per hit. An INSERT on an existing o_custkey
// updates that group where it lies, so the same holds after a hundred of
// them, and the view has neither grown a block nor a dead row.
func TestQueryHitRangeReadsOneBlock(t *testing.T) {
	f := newHitFixture(t)
	snap := f.srv.db.Snapshot()
	view := snap.ViewData("qh_oc").Store()
	snap.Release()
	if view.NumBlocks() != 2 {
		t.Fatalf("qh_oc: %d blocks, want 2", view.NumBlocks())
	}
	c := newReusedCall("/query")
	check := func(when string) {
		t.Helper()
		for _, body := range f.ranges {
			before := exec.ReadScanStats()
			if code, out := c.do(f.h, body); code != http.StatusOK {
				t.Fatalf("status %d: %s", code, out)
			}
			after := exec.ReadScanStats()
			if scanned, skipped := after.BlocksScanned-before.BlocksScanned, after.BlocksSkipped-before.BlocksSkipped; scanned != 1 || skipped != 1 {
				t.Errorf("%s: %s: scanned %d blocks and skipped %d, want 1 and 1", when, body, scanned, skipped)
			}
		}
	}
	check("as built")
	for i := range 100 {
		cust := view.Value(i*view.Len()/100, 0).Int()
		dml := fmt.Sprintf("insert into orders values (%d, %d, 'O', 100.0, '1995-01-01', '1-URGENT', 'Clerk#000000001', 0, 'x')", 9_000_000+i, cust)
		if code, body := f.call("/exec", mustJSON(&ExecRequest{SQL: dml})); code != http.StatusOK {
			t.Fatalf("insert: status %d: %s", code, body)
		}
	}
	check("after 100 inserts")
	snap = f.srv.db.Snapshot()
	defer snap.Release()
	if after := snap.ViewData("qh_oc").Store(); after.Len() != view.Len() || after.Live() != view.Len() {
		t.Errorf("qh_oc after 100 inserts on existing groups: %d rows, %d live; it had %d", after.Len(), after.Live(), view.Len())
	}
}
