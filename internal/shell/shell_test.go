package shell_test

import (
	"fmt"
	"strings"
	"testing"

	"matview/internal/maintain"
	"matview/internal/shell"
	"matview/internal/tpch"
)

func newSession(t *testing.T) *shell.Session {
	t.Helper()
	db, err := tpch.NewDatabase(0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	return shell.NewSession(db)
}

// run and runErr execute one statement, expecting success or failure, and
// then hold the view registries to CheckViews: whatever a statement did or
// failed to do, no view is in one registry and missing from another.
func run(t *testing.T, s *shell.Session, stmt string) string {
	t.Helper()
	var sb strings.Builder
	if err := s.Execute(stmt, &sb); err != nil {
		t.Fatalf("Execute(%q): %v", stmt, err)
	}
	checkViews(t, s)
	return sb.String()
}

func runErr(t *testing.T, s *shell.Session, stmt string) error {
	t.Helper()
	var sb strings.Builder
	err := s.Execute(stmt, &sb)
	if err == nil {
		t.Fatalf("Execute(%q) succeeded, want error; output:\n%s", stmt, sb.String())
	}
	checkViews(t, s)
	return err
}

func checkViews(t *testing.T, s *shell.Session) {
	t.Helper()
	if err := s.CheckViews(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionEndToEnd(t *testing.T) {
	s := newSession(t)

	// Create + materialize a view.
	out := run(t, s, `create view pq with schemabinding as
		select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty
		from lineitem group by l_partkey`)
	if !strings.Contains(out, "materialized view pq") {
		t.Fatalf("create view output: %s", out)
	}

	// Declare an index on the view's key.
	out = run(t, s, "create unique index pq_idx on pq (l_partkey)")
	if !strings.Contains(out, "created index pq_idx") {
		t.Fatalf("create index output: %s", out)
	}

	// A point rollup query must use the view (and seek it).
	out = run(t, s, "explain select l_partkey, sum(l_quantity) as q from lineitem where l_partkey = 5 group by l_partkey")
	if !strings.Contains(out, "uses views: true") {
		t.Fatalf("explain output: %s", out)
	}
	if !strings.Contains(out, "ViewSeek") {
		t.Fatalf("expected index seek in plan: %s", out)
	}

	// Execute the query for real.
	out = run(t, s, "select l_partkey, sum(l_quantity) as q from lineitem where l_partkey = 5 group by l_partkey")
	if !strings.Contains(out, "used materialized views") {
		t.Fatalf("select output: %s", out)
	}

	// DML with maintenance: insert lineitems for an existing order; the view
	// must absorb them.
	before := s.DB.View("pq").RowCount()
	okey := s.DB.Table("orders").RowAt(0)[tpch.OOrderkey].Int()
	out = run(t, s, sprintf(`insert into lineitem values
		(%d, 777, 1, 7, 5.0, 100.0, 0.0, 0.0, 'N', 'O',
		 DATE '1995-05-05', DATE '1995-05-15', DATE '1995-05-25',
		 'NONE', 'MAIL', 'shell test')`, okey))
	if !strings.Contains(out, "inserted 1 row") {
		t.Fatalf("insert output: %s", out)
	}
	_ = before

	// The new part key 777 exceeds SF 0.001's part domain, so the view gains
	// a fresh group.
	out = run(t, s, "select l_partkey, sum(l_quantity) as q from lineitem where l_partkey = 777 group by l_partkey")
	if !strings.Contains(out, "777") {
		t.Fatalf("maintained view missing new group: %s", out)
	}

	// Delete it again: the group must disappear (count reaches zero).
	out = run(t, s, "delete from lineitem where l_partkey = 777")
	if !strings.Contains(out, "deleted 1 row") {
		t.Fatalf("delete output: %s", out)
	}
	out = run(t, s, "select l_partkey, sum(l_quantity) as q from lineitem where l_partkey = 777 group by l_partkey")
	if !strings.Contains(out, "0 rows") {
		t.Fatalf("group not removed: %s", out)
	}

	// Stats accumulated across the session.
	var sb strings.Builder
	if !s.Meta("\\stats", &sb) {
		t.Fatal("\\stats ended the session")
	}
	if !strings.Contains(sb.String(), "view-matching invocations") {
		t.Fatalf("stats output: %s", sb.String())
	}
	sb.Reset()
	if !s.Meta("\\views", &sb) || !strings.Contains(sb.String(), "pq") {
		t.Fatalf("views output: %s", sb.String())
	}
	if s.Meta("\\quit", &sb) {
		t.Fatal("\\quit did not end the session")
	}
}

func TestSessionIndexOnBaseTable(t *testing.T) {
	s := newSession(t)
	out := run(t, s, "create index oidx on orders (o_custkey)")
	if !strings.Contains(out, "created index oidx on table orders") {
		t.Fatalf("output: %s", out)
	}
}

func TestSessionErrors(t *testing.T) {
	s := newSession(t)
	runErr(t, s, "select nope from lineitem")
	runErr(t, s, "create index i on ghost (x)")
	runErr(t, s, "insert into ghost values (1)")
	run(t, s, `create view v1 with schemabinding as
		select l_partkey, count_big(*) as cnt from lineitem group by l_partkey`)
	runErr(t, s, "create view v1 with schemabinding as select l_partkey, count_big(*) as cnt from lineitem group by l_partkey")
	runErr(t, s, "create index i on v1 (no_such_output)")
}

func TestSessionRowLimit(t *testing.T) {
	s := newSession(t)
	s.MaxRows = 3
	out := run(t, s, "select l_orderkey from lineitem")
	if !strings.Contains(out, "more rows") {
		t.Fatalf("row limit not applied:\n%s", out[:200])
	}
}

func sprintf(format string, args ...any) string {
	return strings.TrimSpace(fmt.Sprintf(format, args...))
}

func TestSessionAdvise(t *testing.T) {
	s := newSession(t)
	var sb strings.Builder
	// Before any queries: hint to run some.
	if !s.Meta("\\advise", &sb) || !strings.Contains(sb.String(), "no queries yet") {
		t.Fatalf("empty advise: %s", sb.String())
	}
	// Run the same rollup twice with different selections.
	run(t, s, "select o_custkey, sum(o_totalprice) as total from orders group by o_custkey")
	run(t, s, "select o_custkey, sum(o_totalprice) as total from orders where o_custkey <= 50 group by o_custkey")
	sb.Reset()
	if !s.Meta("\\advise", &sb) {
		t.Fatal("advise ended session")
	}
	out := sb.String()
	if !strings.Contains(out, "CREATE VIEW") {
		t.Fatalf("advise output: %s", out)
	}
	if !strings.Contains(out, "GROUP BY") {
		t.Fatalf("expected a rollup recommendation: %s", out)
	}
}

func TestSessionDropView(t *testing.T) {
	s := newSession(t)
	run(t, s, `create view pq with schemabinding as
		select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty
		from lineitem group by l_partkey`)
	run(t, s, "create unique index pq_idx on pq (l_partkey)")
	out := run(t, s, "explain select l_partkey, sum(l_quantity) as q from lineitem where l_partkey = 5 group by l_partkey")
	if !strings.Contains(out, "uses views: true") {
		t.Fatalf("view not used before drop: %s", out)
	}

	out = run(t, s, "drop view pq")
	if !strings.Contains(out, "dropped view pq") {
		t.Fatalf("drop output: %s", out)
	}
	if s.DB.View("pq") != nil {
		t.Fatal("view still present in storage after drop")
	}
	out = run(t, s, "explain select l_partkey, sum(l_quantity) as q from lineitem where l_partkey = 5 group by l_partkey")
	if strings.Contains(out, "uses views: true") {
		t.Fatalf("dropped view still used by plans: %s", out)
	}
	// The query still runs correctly from the base table.
	out = run(t, s, "select l_partkey, sum(l_quantity) as q from lineitem where l_partkey = 5 group by l_partkey")
	if strings.Contains(out, "used materialized views") {
		t.Fatalf("dropped view answered a query: %s", out)
	}

	// Dropping again (or dropping an unknown view) errors.
	runErr(t, s, "drop view pq")
	runErr(t, s, "drop view ghost")
}

// TestSessionFailedIndexLeavesNoSeek: a unique index over a view column that
// holds duplicates fails in storage, so the optimizer never learns of it —
// neither its index list nor the catalog epoch moves, and no plan seeks an
// index that was never built. The same index without UNIQUE then works.
func TestSessionFailedIndexLeavesNoSeek(t *testing.T) {
	s := newSession(t)
	run(t, s, `create view oc with schemabinding as
		select o_orderstatus, o_custkey, count_big(*) as cnt
		from orders group by o_orderstatus, o_custkey`)
	const point = "explain select o_custkey, count_big(*) as cnt from orders where o_custkey = 5 group by o_custkey"
	epoch := s.Opt.CatalogEpoch()
	runErr(t, s, "create unique index oc_cust on oc (o_custkey)")
	if got := s.Opt.CatalogEpoch(); got != epoch {
		t.Fatalf("failed index moved the catalog epoch %d -> %d", epoch, got)
	}
	if idx := s.Opt.ViewIndexes("oc"); len(idx) != 0 {
		t.Fatalf("optimizer declares %v on oc after a failed build", idx)
	}
	if out := run(t, s, point); strings.Contains(out, "ViewSeek") {
		t.Fatalf("plan seeks an index storage never built:\n%s", out)
	}
	run(t, s, "create index oc_cust on oc (o_custkey)")
	if out := run(t, s, point); !strings.Contains(out, "ViewSeek") {
		t.Fatalf("plan ignores the built index:\n%s", out)
	}
}

func TestSessionErrorPaths(t *testing.T) {
	s := newSession(t)
	// Malformed SQL never reaches execution.
	runErr(t, s, "selec t l_partkey from lineitem")
	runErr(t, s, "select l_partkey from")
	// Unknown table in every statement kind.
	runErr(t, s, "select l_partkey from ghost")
	runErr(t, s, "delete from ghost where l_partkey = 5")
	runErr(t, s, "insert into ghost values (1)")
	// DML must target a base table; views (and missing views) are rejected.
	run(t, s, `create view pq with schemabinding as
		select l_partkey, count_big(*) as cnt from lineitem group by l_partkey`)
	runErr(t, s, "insert into pq values (1, 1)")
	runErr(t, s, "delete from pq where l_partkey = 5")
	// The session survives every failure above and still answers queries.
	out := run(t, s, "select l_partkey, count_big(*) as cnt from lineitem where l_partkey = 1 group by l_partkey")
	if !strings.Contains(out, "used materialized views") {
		t.Fatalf("session unhealthy after errors: %s", out)
	}
}

// TestRepairKeepsUniqueViewIndex: two rows under one key of a view's unique
// index make the view Stale, and a repair cannot heal it — its recompute
// holds the same two rows. The repair fails, the view stays out of plans,
// and storage and the optimizer both keep the index.
func TestRepairKeepsUniqueViewIndex(t *testing.T) {
	s := newSession(t)
	run(t, s, `create view big with schemabinding as
		select o_orderkey, o_custkey from orders where o_totalprice > 1000000000`)
	run(t, s, "create unique index big_cust on big (o_custkey)")
	for _, key := range []int{920001, 920002} {
		var sb strings.Builder
		_ = s.Execute(fmt.Sprintf("insert into orders values (%d, 7, 'O', 2000000000.0, '1995-06-01', '1-URGENT', 'Clerk#9', 0, 'dup')", key), &sb)
		checkViews(t, s)
	}
	if st, _ := s.Maint.ViewState("big"); st == maintain.Fresh {
		t.Fatal("a duplicate key under the unique index left the view Fresh")
	}
	s.Maint.Repair()
	checkViews(t, s)
	if st, _ := s.Maint.ViewState("big"); st == maintain.Fresh {
		t.Fatal("repair brought the view Fresh over rows its unique index refuses")
	}
	if idx := s.Opt.ViewIndexes("big"); len(idx) != 1 {
		t.Fatalf("optimizer view indexes after repair = %v", idx)
	}
	if s.DB.View("big").LookupIndex([]int{1}) == nil {
		t.Fatal("storage dropped the view's unique index")
	}
}
