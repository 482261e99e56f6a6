package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"matview/internal/catalog"
	"matview/internal/faults"
	"matview/internal/maintain"
	"matview/internal/storage"
	"matview/internal/tpch"
	"matview/internal/wal"
)

func durableOptions() wal.Options {
	return wal.Options{
		NewCatalog: func() *catalog.Catalog { return tpch.NewCatalog(0.001) },
		Bootstrap:  func() (*storage.Database, error) { return tpch.NewDatabase(0.001, 42) },
	}
}

// newDurableServer recovers dir and serves it, the same two-phase startup
// cmd/vmserver uses. CheckpointInterval is negative so tests control
// checkpoint timing explicitly.
func newDurableServer(t *testing.T, dir string, cfg Config) (*Server, *wal.OpenResult, *httptest.Server) {
	t.Helper()
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = -1
	}
	srv := NewRecovering(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	res, err := wal.Open(dir, durableOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv.Adopt(res)
	return srv, res, ts
}

// TestRecoveringGate: before Adopt, /healthz answers 503 "recovering" with a
// Retry-After, and every data endpoint is refused; after Adopt the server
// reports ok plus its recovery stats.
func TestRecoveringGate(t *testing.T) {
	cfg := Config{CheckpointInterval: -1}
	srv := NewRecovering(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "recovering" {
		t.Fatalf("pre-adopt healthz = %d %q, want 503 recovering", resp.StatusCode, h.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("recovering healthz lacks Retry-After")
	}
	for _, path := range []string{"/query", "/exec"} {
		code, body := postReq(t, ts, path, map[string]string{"sql": "select 1"})
		if code != http.StatusServiceUnavailable {
			t.Fatalf("pre-adopt POST %s = %d (%s), want 503", path, code, body)
		}
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if mr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-adopt GET /metrics = %d, want 503", mr.StatusCode)
	}

	res, err := wal.Open(t.TempDir(), durableOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv.Adopt(res)
	defer srv.Shutdown(context.Background())

	h2 := healthz(t, ts)
	if h2.Status != "ok" {
		t.Fatalf("post-adopt healthz = %q, want ok", h2.Status)
	}
	if h2.RecoverySeconds <= 0 {
		t.Fatalf("post-adopt healthz recovery_seconds = %v, want > 0", h2.RecoverySeconds)
	}
	if got := query(t, ts, "select count_big(*) as n from orders"); got.RowCount != 1 {
		t.Fatalf("post-adopt query rowCount = %d, want 1", got.RowCount)
	}
}

// TestDurableServerCleanRestart: Shutdown writes a final checkpoint, so the
// next server recovers the full state replaying zero records.
func TestDurableServerCleanRestart(t *testing.T) {
	dir := t.TempDir()
	srv, _, ts := newDurableServer(t, dir, Config{})
	execStmt(t, ts, "create view dur_oc with schemabinding as select o_custkey, count_big(*) as cnt from orders group by o_custkey")
	checkViews(t, srv)
	execStmt(t, ts, "insert into orders values (910001, 1, 'O', 50.0, '1995-06-01', '1-URGENT', 'Clerk#9', 0, 'durable')")
	want := query(t, ts, "select o_custkey, count_big(*) as cnt from orders group by o_custkey")

	m := srv.Metrics()
	if m.WAL == nil {
		t.Fatal("durable server reports no wal metrics")
	}
	if m.WAL.RecordsAppended != 2 || m.WAL.Fsyncs < 2 {
		t.Fatalf("wal metrics records=%d fsyncs=%d, want 2 records and >= 2 fsyncs",
			m.WAL.RecordsAppended, m.WAL.Fsyncs)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	srv2, res2, ts2 := newDurableServer(t, dir, Config{})
	defer srv2.Shutdown(context.Background())
	if res2.Recovery.ReplayedRecords != 0 {
		t.Fatalf("clean restart replayed %d records, want 0", res2.Recovery.ReplayedRecords)
	}
	checkViews(t, srv2)
	h := healthz(t, ts2)
	if h.Status != "ok" || h.RecoveryReplayed != 0 {
		t.Fatalf("healthz after clean restart = %q replayed=%d, want ok/0", h.Status, h.RecoveryReplayed)
	}
	got := query(t, ts2, "select o_custkey, count_big(*) as cnt from orders group by o_custkey")
	if !got.UsedViews {
		t.Fatal("recovered view not used by the optimizer")
	}
	if g, w := normRows(t, got.Rows), normRows(t, want.Rows); strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatal("rows after clean restart differ from pre-shutdown rows")
	}
}

// TestDurableServerCrashRestart: abandoning the server without Shutdown
// models a crash; a fresh stack over the same directory replays the WAL tail
// and serves identical data.
func TestDurableServerCrashRestart(t *testing.T) {
	dir := t.TempDir()
	// Long GC interval: the abandoned server's GC goroutine stays idle
	// instead of churning during the rest of the test.
	srv, _, ts := newDurableServer(t, dir, Config{GCInterval: time.Hour})
	execStmt(t, ts, "create view dur_oc2 with schemabinding as select o_custkey, count_big(*) as cnt from orders group by o_custkey")
	checkViews(t, srv)
	execStmt(t, ts, "insert into orders values (910002, 7, 'F', 75.5, '1997-01-15', '3-MEDIUM', 'Clerk#3', 0, 'crashy')")
	want := query(t, ts, "select o_custkey, count_big(*) as cnt from orders group by o_custkey")
	// No Shutdown: the process "dies" here with only fsync'd WAL state.

	srv2, res2, ts2 := newDurableServer(t, dir, Config{GCInterval: time.Hour})
	defer srv2.Shutdown(context.Background())
	if res2.Recovery.ReplayedRecords != 2 {
		t.Fatalf("crash restart replayed %d records, want 2", res2.Recovery.ReplayedRecords)
	}
	checkViews(t, srv2)
	h := healthz(t, ts2)
	if h.Status != "ok" || h.RecoveryReplayed != 2 {
		t.Fatalf("healthz after crash restart = %q replayed=%d, want ok/2", h.Status, h.RecoveryReplayed)
	}
	got := query(t, ts2, "select o_custkey, count_big(*) as cnt from orders group by o_custkey")
	if g, w := normRows(t, got.Rows), normRows(t, want.Rows); strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatal("rows after crash restart differ from pre-crash rows")
	}
}

// TestRestartDropsUnbuiltView: a view whose autopilot build failed is
// quarantined with no rows; its creation never committed, so nothing durable
// records it, and a restart drops it — from every registry at once — while
// the views that were built come back.
func TestRestartDropsUnbuiltView(t *testing.T) {
	dir := t.TempDir()
	srv, _, ts := newDurableServer(t, dir, Config{})
	execStmt(t, ts, "create view dur_built with schemabinding as select o_custkey, count_big(*) as cnt from orders group by o_custkey")
	inj := faults.New(31)
	inj.Add(faults.Rule{Site: faults.SiteMaintainRecompute, Rate: 1, Limit: 1})
	srv.SetFaultInjector(inj)
	if err := srv.CreateView("dur_wreck", mustParseDef(t, srv, pilotRollupDef)); err == nil {
		t.Fatal("faulted CreateView reported success")
	}
	checkViews(t, srv)
	if st, _ := srv.Maintainer().ViewState("dur_wreck"); st != maintain.Quarantined {
		t.Fatalf("state after faulted build = %v, want Quarantined", st)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	srv2, _, ts2 := newDurableServer(t, dir, Config{})
	defer srv2.Shutdown(context.Background())
	checkViews(t, srv2)
	if _, ok := srv2.Maintainer().ViewState("dur_wreck"); ok {
		t.Fatal("never-built view survived the restart")
	}
	if st, ok := srv2.Maintainer().ViewState("dur_built"); !ok || st != maintain.Fresh {
		t.Fatalf("built view after restart: state %v, present %v", st, ok)
	}
	if h := healthz(t, ts2); h.Status != "ok" {
		t.Fatalf("healthz after restart = %+v, want ok", h)
	}
}

// TestInMemoryServerHasNoWAL: with DataDir unset nothing durable is wired —
// the historical in-memory behavior, byte for byte.
func TestInMemoryServerHasNoWAL(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	defer srv.Shutdown(context.Background())
	if m := srv.Metrics(); m.WAL != nil {
		t.Fatalf("in-memory server reports wal metrics: %+v", m.WAL)
	}
	h := healthz(t, ts)
	if h.Status != "ok" || h.RecoverySeconds != 0 {
		t.Fatalf("in-memory healthz = %q recovery=%v, want ok with no recovery stats", h.Status, h.RecoverySeconds)
	}
}
