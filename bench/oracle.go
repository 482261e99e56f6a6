package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"matview/internal/catalog"
	"matview/internal/exec"
	"matview/internal/server"
	"matview/internal/sqlparser"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// floatTolerance is the relative difference two float answers may have.
// Float SUMs are merged in scheduling order today (ROADMAP's first open
// item: per-worker partial sums, non-associative addition), so the same
// statement can differ in the last bits from run to run and from the
// reference evaluator. Tighten this to exact equality when that item lands.
const floatTolerance = 1e-9

// jsonValue maps a stored value to what the server's JSON carries for it
// once decoded: numbers as float64, dates as 'YYYY-MM-DD' text.
func jsonValue(v sqlvalue.Value) any {
	switch v.Kind() {
	case sqlvalue.KindNull:
		return nil
	case sqlvalue.KindBool:
		return v.Bool()
	case sqlvalue.KindInt:
		return float64(v.Int())
	case sqlvalue.KindFloat:
		return v.Float()
	case sqlvalue.KindString:
		return v.Str()
	default:
		return strings.Trim(v.String(), "'")
	}
}

func jsonRows(rows []storage.Row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = make([]any, len(r))
		for j, v := range r {
			out[i][j] = jsonValue(v)
		}
	}
	return out
}

// sortKey orders rows for bag comparison. Whole numbers (keys, counts) are
// rendered exactly, so rows that differ in a key never tie; other floats are
// rendered coarsely, so two sums that differ within the tolerance sort alike.
func sortKey(row []any) string {
	var sb strings.Builder
	for _, v := range row {
		f, isFloat := v.(float64)
		switch {
		case isFloat && f == math.Trunc(f) && math.Abs(f) < 1e15:
			fmt.Fprintf(&sb, "%d|", int64(f))
		case isFloat:
			fmt.Fprintf(&sb, "%.6g|", f)
		default:
			fmt.Fprintf(&sb, "%v|", v)
		}
	}
	return sb.String()
}

// sameRows reports whether two answers are the same bag of rows, floats
// compared at floatTolerance.
func sameRows(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([][]any(nil), a...), append([][]any(nil), b...)
	for _, rows := range [][][]any{a, b} {
		sort.SliceStable(rows, func(i, j int) bool { return sortKey(rows[i]) < sortKey(rows[j]) })
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, xf := a[i][j].(float64)
			y, yf := b[i][j].(float64)
			if xf && yf {
				if x != y && math.Abs(x-y) > floatTolerance*math.Max(math.Abs(x), math.Abs(y)) {
					return false
				}
			} else if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// reference answers a SELECT with the row-at-a-time reference evaluator over
// a plan that uses no view and no index.
func reference(cat *catalog.Catalog, db storage.Reader, sql string) ([][]any, error) {
	q, err := sqlparser.ParseQuery(cat, sql)
	if err != nil {
		return nil, err
	}
	plan, err := exec.BuildReferencePlan(q)
	if err != nil {
		return nil, err
	}
	rows, err := exec.RunReference(db, plan)
	if err != nil {
		return nil, err
	}
	return jsonRows(rows), nil
}

// requestBody is the JSON body of a /query or /exec request.
func requestBody(sql string) []byte {
	b, _ := json.Marshal(map[string]string{"sql": sql})
	return b
}

// call sends one request through the server's handler with an in-memory
// request and recorder: decode, admission, planning, execution and encode are
// inside the timed call; sockets and net/http's connection goroutines are not.
func call(h http.Handler, path string, body []byte) (code int, resp []byte, start time.Time, d time.Duration) {
	req, _ := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start = time.Now()
	h.ServeHTTP(rec, req)
	d = time.Since(start)
	return rec.Code, rec.Body.Bytes(), start, d
}

// query sends a SELECT and decodes the answer.
func query(h http.Handler, sql string) (*server.QueryResponse, error) {
	code, body, _, _ := call(h, "/query", requestBody(sql))
	if code != http.StatusOK {
		return nil, fmt.Errorf("/query %q: status %d: %s", sql, code, bytes.TrimSpace(body))
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("/query %q: %w", sql, err)
	}
	return &resp, nil
}

// execSQL sends DML or DDL and fails on anything but 200.
func execSQL(h http.Handler, sql string) error {
	code, body, _, _ := call(h, "/exec", requestBody(sql))
	if code != http.StatusOK {
		return fmt.Errorf("/exec %q: status %d: %s", sql, code, bytes.TrimSpace(body))
	}
	return nil
}

// statement is one pooled SELECT: its request body, and after the oracle
// pass the marker every later answer to it must carry.
type statement struct {
	sql      string
	body     []byte
	rowCount []byte // `"rowCount":N,` as the oracle-checked answer had it
	lo, hi   int64  // a rollup statement's key range, for cut
}

func newStatement(sql string) *statement {
	return &statement{sql: sql, body: requestBody(sql)}
}

// cut selects from an ungrouped-by-constant reference rollup the rows whose
// key (the first column) the statement's predicate keeps.
func (s *statement) cut(rollup [][]any) [][]any {
	var out [][]any
	for _, row := range rollup {
		if k := row[0].(float64); k >= float64(s.lo) && k <= float64(s.hi) {
			out = append(out, row)
		}
	}
	return out
}

// answered is the cheap in-window check: status 200 and the row count the
// oracle-checked answer had. The full comparison ran before the window.
func (s *statement) answered(code int, body []byte) bool {
	return code == http.StatusOK && bytes.Contains(body, s.rowCount)
}

// checkStatements answers every statement once through the handler and
// compares it to want(statement); it also keeps each answer's row count for
// the in-window check.
func checkStatements(r *result, h http.Handler, stmts []*statement, want func(i int) ([][]any, error)) error {
	for i, s := range stmts {
		code, body, _, _ := call(h, "/query", s.body)
		var resp server.QueryResponse
		if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
			r.check(false, "%q: status %d: %s", s.sql, code, bytes.TrimSpace(body))
			continue
		}
		exp, err := want(i)
		if err != nil {
			return fmt.Errorf("oracle for %q: %w", s.sql, err)
		}
		s.rowCount = []byte(fmt.Sprintf(`"rowCount":%d,`, resp.RowCount))
		r.check(!resp.Truncated && sameRows(resp.Rows, exp), "%q: %d rows differ from the reference's %d", s.sql, len(resp.Rows), len(exp))
	}
	return nil
}

// queryReplayer runs the traced form of a /query operation.
type queryReplayer struct {
	srv *server.Server
	db  *storage.Database
	// execSpan names the execution stage: a metric on the workloads whose
	// plans are view seeks, a plain span name elsewhere.
	execSpan string
}

// tracedQuery makes the real handler call the root span, then re-runs —
// against the same server's objects and in runQuery's order — the stages a
// cache-hit /query performs, as replayed children. The root's self time is
// what the handler spends outside them (decode, admission, recorder, metrics).
func (q queryReplayer) tracedQuery(t *tracer, h http.Handler, s *statement, sample bool) (code int, body []byte, d time.Duration) {
	code, body, start, d := call(h, "/query", s.body)
	rt := t.root("server.handler_us", start, d)
	defer rt.finish("server.other_us", sample)
	var key string
	var cp *server.CachedPlan
	rt.stage("sqlparser.fingerprint_us", func() { key, _ = sqlparser.Fingerprint(s.sql) })
	rt.stage("server.plancache_get_ns", func() { cp, _ = q.srv.Cache().Get(key, q.srv.Optimizer().CatalogEpoch()) })
	rt.stage("storage.snapshot_ns", func() { q.db.Snapshot().Release() })
	if cp == nil {
		return code, body, d
	}
	snap := q.db.Snapshot()
	defer snap.Release()
	var rows []storage.Row
	rt.stage(q.execSpan, func() { rows, _ = cp.Res.Plan.Run(snap) })
	rt.stage("server.encode_us", func() {
		resp := server.QueryResponse{Columns: cp.Columns, RowCount: len(rows), UsedViews: cp.Res.UsesView, Cached: true, Epoch: snap.Epoch()}
		resp.Rows = make([][]any, len(rows))
		for i, row := range rows {
			out := make([]any, len(row))
			for j, v := range row {
				if v.Kind() == sqlvalue.KindInt {
					out[j] = v.Int() // the server encodes integers as integers
				} else {
					out[j] = jsonValue(v)
				}
			}
			resp.Rows[i] = out
		}
		_ = json.NewEncoder(io.Discard).Encode(&resp)
	})
	return code, body, d
}
