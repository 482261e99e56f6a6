package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/opt"
	"matview/internal/sqlparser"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// valueToJSON is how the reflective encoder the server used to answer /query
// with boxed a stored value; it remains the test-side definition of what a
// cell looks like on the wire.
func valueToJSON(v sqlvalue.Value) any {
	switch v.Kind() {
	case sqlvalue.KindNull:
		return nil
	case sqlvalue.KindBool:
		return v.Bool()
	case sqlvalue.KindInt:
		return v.Int()
	case sqlvalue.KindFloat:
		return v.Float()
	case sqlvalue.KindString:
		return v.Str()
	default: // dates render as 'YYYY-MM-DD'
		return strings.Trim(v.String(), "'")
	}
}

// referenceBody is the body encoding/json writes for resp carrying rows, the
// contract appendQueryResponse is held to byte for byte.
func referenceBody(t *testing.T, resp QueryResponse, rows []storage.Row) []byte {
	t.Helper()
	resp.Rows = make([][]any, len(rows))
	for i, row := range rows {
		resp.Rows[i] = make([]any, len(row))
		for j, v := range row {
			resp.Rows[i][j] = valueToJSON(v)
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// kindRows holds every kind of stored value and, per kind, the values whose
// JSON form has a rule of its own. Columns: NULL, bool, int, float, string,
// date — one kind per column, so the column store keeps them typed.
func kindRows() []storage.Row {
	ints := []int64{0, -1, 42, math.MaxInt64, math.MinInt64, 1 << 53}
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e20, 1e21, -1e21, 1e-6, 1e-7, 9.999999e-7,
		3.8129789299999997e+06, 3.81297893e+06, 0.1, 1.0 / 3, 123456789012345680, 1e100, 1e-100,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64}
	strs := []string{"", "plain", `say "hi"`, `back\slash`, "tab\tnl\ncr\r", "bell\a\b\f\v\x00\x1f\x7f",
		"<script>&amp;</script>", "café 世界 \U0001F600", "bad\xff\xfeutf8\xc3", "ls ps end", "'quoted''"}
	dates := []sqlvalue.Value{sqlvalue.NewDateYMD(1995, 1, 1), sqlvalue.NewDateYMD(1970, 1, 1),
		sqlvalue.NewDateYMD(1969, 12, 31), sqlvalue.NewDateYMD(2024, 2, 29), sqlvalue.NewDateYMD(9999, 12, 31)}
	rows := make([]storage.Row, len(floats))
	for i := range rows {
		rows[i] = storage.Row{sqlvalue.Null, sqlvalue.NewBool(i%2 == 0), sqlvalue.NewInt(ints[i%len(ints)]),
			sqlvalue.NewFloat(floats[i]), sqlvalue.NewString(strs[i%len(strs)]), dates[i%len(dates)]}
	}
	return rows
}

func TestEncodeMatchesEncodingJSON(t *testing.T) {
	rows := kindRows()
	cols := []string{"n", "b", "i", "f", `s"<&>`, "d"}
	for name, c := range map[string]struct {
		resp QueryResponse
		rows []storage.Row
	}{
		"every kind":   {QueryResponse{Columns: cols, RowCount: len(rows), UsedViews: true, Cached: true, ElapsedMicros: 12, Epoch: 7}, rows},
		"zero rows":    {QueryResponse{Columns: cols, Epoch: math.MaxUint64}, nil},
		"empty rows":   {QueryResponse{Columns: cols}, []storage.Row{}},
		"zero columns": {QueryResponse{RowCount: 3}, []storage.Row{{}, nil, {}}},
		"truncated":    {QueryResponse{Columns: cols, RowCount: 1 << 40, Truncated: true, ElapsedMicros: -1}, rows[:2]},
		"explain":      {QueryResponse{Columns: cols, Cached: true, Plan: "Project\n  ViewSeek(v, cols [0])\t<\"&\">\n"}, nil},
		"zero value":   {QueryResponse{}, nil},
	} {
		got, err := appendQueryResponse(nil, &c.resp, c.rows)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := referenceBody(t, c.resp, c.rows); !bytes.Equal(got, want) {
			t.Errorf("%s: body differs from encoding/json's\n got %s\nwant %s", name, got, want)
		}
	}
	// Appending keeps what the buffer already holds.
	if got, _ := appendQueryResponse([]byte("xy"), &QueryResponse{}, nil); !bytes.HasPrefix(got, []byte("xy{")) {
		t.Errorf("append clobbered its prefix: %s", got)
	}
}

// TestEncodeNonFinite: encoding/json refuses NaN and ±Inf, which
// used to surface as a 200 with an empty body; the encoder reports the cell
// instead, and the handler turns that into a 500 (TestEncodeWireCompat).
func TestEncodeNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rows := []storage.Row{{sqlvalue.NewInt(1)}, {sqlvalue.NewFloat(f)}}
		body, err := appendQueryResponse(nil, &QueryResponse{RowCount: 2}, rows)
		if err == nil || body != nil || !strings.Contains(err.Error(), "row 1, column 0") {
			t.Errorf("%v: body %q, err %v", f, body, err)
		}
	}
}

// plantPlan caches plan under sql's fingerprint, so a /query of sql is a
// plan-cache hit that executes it: the way to put arbitrary stored values in
// front of the handler's encoder.
func plantPlan(t *testing.T, srv *Server, sql string, plan exec.Node, cols []string) {
	t.Helper()
	key, err := sqlparser.Fingerprint(sql)
	if err != nil {
		t.Fatal(err)
	}
	srv.cache.Put(key, srv.opt.CatalogEpoch(), &CachedPlan{Res: &opt.Result{Plan: plan, UsesView: true}, Columns: cols})
}

// TestEncodeWireCompat drives the handler and asserts that every kind of
// reply — rows of every value kind, no rows, no columns, truncated, explain,
// and errors — is byte for byte what encoding/json writes for the same
// QueryResponse (or error), trailing newline and field order included.
func TestEncodeWireCompat(t *testing.T) {
	db := newTestDB(t)
	rows := kindRows()
	db.PutView("kinds", storage.StoreOf(6, rows))
	db.PutView("nonfinite", storage.StoreOf(1, []storage.Row{{sqlvalue.NewFloat(math.Inf(1))}}))
	srv := New(db, Config{MaxRows: len(rows)})
	defer srv.Shutdown(t.Context())
	h := srv.Handler()
	cols := []string{"n", "b", "i", "f", "s", "d"}
	scan := &exec.ViewScan{View: "kinds", NCols: 6}
	plantPlan(t, srv, "select kinds", scan, cols)
	plantPlan(t, srv, "select twice", &exec.NestedLoopJoin{L: scan, R: &exec.ViewScan{View: "kinds", NCols: 6,
		Filter: expr.NewCmp(expr.LT, expr.Col(0, 2), expr.CInt(1))}}, append(cols, cols...))
	plantPlan(t, srv, "select nothing", &exec.ViewScan{View: "kinds", NCols: 6,
		Filter: expr.NewCmp(expr.EQ, expr.Col(0, 2), expr.CInt(-77))}, cols)
	plantPlan(t, srv, "select nocolumns", &exec.Project{In: scan}, nil)
	plantPlan(t, srv, "select nonfinite", &exec.ViewScan{View: "nonfinite", NCols: 1}, []string{"f"})

	post := func(req QueryRequest) (int, []byte) {
		return newReusedCall("/query").do(h, mustJSON(&req))
	}
	for _, c := range []struct {
		req       QueryRequest
		rows      int
		truncated bool
	}{
		{QueryRequest{SQL: "select kinds"}, len(rows), false},
		{QueryRequest{SQL: "select twice"}, len(rows), true},
		{QueryRequest{SQL: "select nothing"}, 0, false},
		{QueryRequest{SQL: "select nocolumns"}, len(rows), false},
		{QueryRequest{SQL: "select kinds", Explain: true}, 0, false},
		{QueryRequest{SQL: "select l_shipdate, l_comment, l_extendedprice from lineitem where l_orderkey < 3"}, 0, false},
	} {
		code, body := post(c.req)
		var resp QueryResponse
		if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
			t.Fatalf("%+v: status %d: %s", c.req, code, body)
		}
		if c.rows > 0 && (len(resp.Rows) != c.rows || resp.Truncated != c.truncated) {
			t.Errorf("%+v: %d rows, truncated %v", c.req, len(resp.Rows), resp.Truncated)
		}
		// What encoding/json writes for the same reply: its scalar fields as
		// decoded, its rows as the cached plan produces them.
		var want []storage.Row
		if !c.req.Explain {
			key, _ := sqlparser.Fingerprint(c.req.SQL)
			cp, _ := srv.cache.Get(key, srv.opt.CatalogEpoch())
			snap := db.Snapshot()
			want, _ = cp.Res.Plan.Run(snap)
			snap.Release()
			want = want[:min(len(want), srv.cfg.MaxRows)]
		}
		resp.Rows = nil
		if ref := referenceBody(t, resp, want); !bytes.Equal(body, ref) {
			t.Errorf("%+v: body differs from encoding/json's\n got %s\nwant %s", c.req, body, ref)
		}
	}

	before := srv.Metrics()
	for _, c := range []struct {
		req  QueryRequest
		code int
	}{
		{QueryRequest{SQL: "select nonfinite"}, http.StatusInternalServerError},
		{QueryRequest{SQL: "select from where"}, http.StatusBadRequest},
		{QueryRequest{SQL: "select 'unterminated"}, http.StatusBadRequest},
		{QueryRequest{SQL: " "}, http.StatusBadRequest},
	} {
		code, body := post(c.req)
		var er errorResponse
		if code != c.code || json.Unmarshal(body, &er) != nil || er.Error == "" {
			t.Fatalf("%+v: status %d, want %d: %q", c.req, code, c.code, body)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(&er)
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%+v: error body %q, want %q", c.req, body, want.Bytes())
		}
	}
	if after := srv.Metrics(); after.Errors-before.Errors != 4 || after.Queries != before.Queries {
		t.Errorf("4 failed requests counted as %d errors, %d queries", after.Errors-before.Errors, after.Queries-before.Queries)
	}
}
