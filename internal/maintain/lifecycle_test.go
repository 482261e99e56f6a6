package maintain_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/faults"
	"matview/internal/maintain"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
	"matview/internal/tpch"
)

// newLifecycleFixture builds a maintainer over a tiny TPC-H database with
// two single-table views over orders (one SPJ, one aggregation), in
// registration order spj first.
func newLifecycleFixture(t *testing.T, seed int64) (*storage.Database, *maintain.Maintainer, *maintain.View, *maintain.View) {
	t.Helper()
	db, err := tpch.NewDatabase(0.001, seed)
	if err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog
	m := maintain.New(db)
	spj := &spjg.Query{
		Tables: []spjg.TableRef{{Table: cat.Table("orders")}},
		Where:  expr.NewCmp(expr.GE, expr.Col(0, tpch.OTotalprice), expr.CInt(100000)),
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
			{Name: "o_totalprice", Expr: expr.Col(0, tpch.OTotalprice)},
		},
	}
	agg := &spjg.Query{
		Tables:  []spjg.TableRef{{Table: cat.Table("orders")}},
		GroupBy: []expr.Expr{expr.Col(0, tpch.OCustkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "o_custkey", Expr: expr.Col(0, tpch.OCustkey)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "total", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.OTotalprice)}},
		},
	}
	vs, err := register(m, "lc_spj", spj)
	if err != nil {
		t.Fatal(err)
	}
	va, err := register(m, "lc_agg", agg)
	if err != nil {
		t.Fatal(err)
	}
	return db, m, vs, va
}

func wantState(t *testing.T, m *maintain.Maintainer, name string, want maintain.State) {
	t.Helper()
	got, ok := m.ViewState(name)
	if !ok {
		t.Fatalf("view %s has no lifecycle entry", name)
	}
	if got != want {
		t.Fatalf("view %s state = %v, want %v", name, got, want)
	}
}

func TestInsertPartialFailureIsolatesTheFailingView(t *testing.T) {
	db, m, vs, va := newLifecycleFixture(t, 21)

	var transitions []string
	m.SetStateListener(func(view string, from, to maintain.State) {
		transitions = append(transitions, view+":"+from.String()+">"+to.String())
	})

	// Fail exactly the first apply this statement performs — lc_spj, the
	// first registered view.
	inj := faults.New(3)
	inj.Add(faults.Rule{Site: faults.SiteMaintainApply, Rate: 1, Limit: 1})
	m.SetFaultInjector(inj)

	err := m.Insert("orders", []storage.Row{newOrderRow(db, 8_000_001, 5, 300_000)})
	var me *maintain.MaintenanceError
	if !errors.As(err, &me) {
		t.Fatalf("Insert returned %T (%v), want *MaintenanceError", err, err)
	}
	if me.Op != "insert" || me.Table != "orders" || me.Base != nil {
		t.Fatalf("report header: %+v", me)
	}
	if len(me.Failed) != 1 || me.Failed[0].View != "lc_spj" || !faults.IsInjected(me.Failed[0].Err) {
		t.Fatalf("Failed = %v", me.Failed)
	}
	if len(me.Updated) != 1 || me.Updated[0] != "lc_agg" {
		t.Fatalf("Updated = %v", me.Updated)
	}
	if !faults.IsInjected(err) {
		t.Fatal("errors.As should reach the injected cause through Unwrap")
	}

	// The failure was recorded before Insert returned: lc_spj is Stale with
	// the cause retained, lc_agg stayed Fresh and correct.
	wantState(t, m, "lc_spj", maintain.Stale)
	wantState(t, m, "lc_agg", maintain.Fresh)
	if le := m.LastError("lc_spj"); !faults.IsInjected(le) {
		t.Fatalf("LastError = %v", le)
	}
	checkAgainstRecompute(t, db, va)
	if len(transitions) != 1 || transitions[0] != "lc_spj:fresh>stale" {
		t.Fatalf("transitions = %v", transitions)
	}

	// The next statement skips the stale view instead of corrupting it
	// further, and still maintains the healthy one — but reports no error.
	if err := m.Insert("orders", []storage.Row{newOrderRow(db, 8_000_002, 6, 400_000)}); err != nil {
		t.Fatalf("insert with a stale view errored: %v", err)
	}
	checkAgainstRecompute(t, db, va)

	// Repair rebuilds the stale view and re-announces freshness.
	rep := m.Repair()
	if len(rep.Repaired) != 1 || rep.Repaired[0] != "lc_spj" {
		t.Fatalf("repair report: %+v", rep)
	}
	wantState(t, m, "lc_spj", maintain.Fresh)
	checkAgainstRecompute(t, db, vs)
	last := transitions[len(transitions)-1]
	if last != "lc_spj:rebuilding>fresh" {
		t.Fatalf("final transition = %v", transitions)
	}

	st := m.Stats()
	if st.MaintenanceFailures != 1 || st.RepairSuccesses != 1 || st.RepairAttempts != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestBaseWriteFailureAbortsStatement(t *testing.T) {
	db, m, vs, va := newLifecycleFixture(t, 22)
	inj := faults.New(4)
	// First base-table row lands, the second blows up mid-batch.
	inj.Add(faults.Rule{Site: faults.SiteStorageInsert, Rate: 1, After: 1})
	m.SetFaultInjector(inj)
	db.SetFaultInjector(inj)

	before := db.Table("orders").NumRows()
	epochBefore := db.Epoch()
	err := m.Insert("orders", []storage.Row{
		newOrderRow(db, 8_100_001, 7, 150_000),
		newOrderRow(db, 8_100_002, 7, 150_000),
	})
	var me *maintain.MaintenanceError
	if !errors.As(err, &me) || me.Base == nil {
		t.Fatalf("want MaintenanceError with Base set, got %v", err)
	}
	if len(me.Updated) != 0 {
		t.Fatalf("aborted statement reported updated views: %+v", me)
	}
	// The statement aborted atomically: the partial batch was rolled back,
	// no view was touched, and the epoch did not advance.
	if got := db.Table("orders").NumRows(); got != before {
		t.Fatalf("orders rows = %d after aborted insert, want %d", got, before)
	}
	if got := db.Epoch(); got != epochBefore {
		t.Fatalf("epoch advanced to %d across an aborted statement, want %d", got, epochBefore)
	}
	wantState(t, m, "lc_spj", maintain.Fresh)
	wantState(t, m, "lc_agg", maintain.Fresh)
	checkAgainstRecompute(t, db, vs)
	checkAgainstRecompute(t, db, va)

	// With the fault disarmed the same statement applies cleanly.
	inj.SetEnabled(false)
	if err := m.Insert("orders", []storage.Row{
		newOrderRow(db, 8_100_001, 7, 150_000),
		newOrderRow(db, 8_100_002, 7, 150_000),
	}); err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	if got := db.Table("orders").NumRows(); got != before+2 {
		t.Fatalf("orders rows = %d after retry, want %d", got, before+2)
	}
	checkAgainstRecompute(t, db, vs)
	checkAgainstRecompute(t, db, va)
}

func TestRepairBackoffThenQuarantine(t *testing.T) {
	db, m, _, _ := newLifecycleFixture(t, 23)
	now := time.Unix(1_000_000, 0)
	m.SetClock(func() time.Time { return now })
	m.SetRepairPolicy(maintain.RepairPolicy{
		MaxAttempts: 3,
		BackoffBase: time.Second,
		BackoffMax:  time.Minute,
		Jitter:      0, // deterministic schedule
	})

	inj := faults.New(5)
	inj.Add(faults.Rule{Site: faults.SiteMaintainMergeAgg, Rate: 1, Limit: 1})
	inj.Add(faults.Rule{Site: faults.SiteMaintainRecompute, Rate: 1})
	m.SetFaultInjector(inj)

	if err := m.Insert("orders", []storage.Row{newOrderRow(db, 8_200_001, 9, 100)}); err == nil {
		t.Fatal("fault did not surface")
	}
	wantState(t, m, "lc_agg", maintain.Stale)

	// Attempt 1 fails; the view backs off.
	rep := m.Repair()
	if len(rep.Failed) != 1 || rep.Failed[0].View != "lc_agg" {
		t.Fatalf("attempt 1 report: %+v", rep)
	}
	// Before the backoff elapses the view only waits.
	rep = m.Repair()
	if len(rep.Waiting) != 1 || len(rep.Failed)+len(rep.Quarantined) != 0 {
		t.Fatalf("backoff not honored: %+v", rep)
	}

	// Attempt 2 after the backoff: fails again, deeper backoff.
	now = now.Add(2 * time.Second)
	rep = m.Repair()
	if len(rep.Failed) != 1 {
		t.Fatalf("attempt 2 report: %+v", rep)
	}
	// Attempt 3 exhausts the budget: quarantined.
	now = now.Add(time.Minute)
	rep = m.Repair()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "lc_agg" {
		t.Fatalf("attempt 3 report: %+v", rep)
	}
	wantState(t, m, "lc_agg", maintain.Quarantined)

	// Quarantine is terminal for the automatic loop...
	now = now.Add(time.Hour)
	if rep := m.Repair(); len(rep.Repaired)+len(rep.Failed)+len(rep.Waiting) != 0 {
		t.Fatalf("quarantined view re-entered repair: %+v", rep)
	}
	// ...DML skips it...
	if err := m.Insert("orders", []storage.Row{newOrderRow(db, 8_200_002, 9, 100)}); err != nil {
		t.Fatalf("insert with quarantined view errored: %v", err)
	}
	wantState(t, m, "lc_agg", maintain.Quarantined)
	// ...and reviving it takes an operator.
	if err := m.RepairView("lc_agg", false); err == nil {
		t.Fatal("quarantined repair without force succeeded")
	}
	inj.SetEnabled(false)
	if err := m.RepairView("lc_agg", true); err != nil {
		t.Fatalf("forced repair: %v", err)
	}
	wantState(t, m, "lc_agg", maintain.Fresh)

	st := m.Stats()
	if st.Quarantines != 1 || st.RepairFailures != 3 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Degraded <= 0 {
		t.Fatalf("degraded time not accounted: %v", st.Degraded)
	}
}

func TestPanicDuringMaintenanceDegradesOneView(t *testing.T) {
	db, m, _, va := newLifecycleFixture(t, 24)
	inj := faults.New(6)
	inj.Add(faults.Rule{Site: faults.SiteMaintainMergeAgg, Rate: 1, Limit: 1, Panic: true})
	m.SetFaultInjector(inj)

	err := m.Insert("orders", []storage.Row{newOrderRow(db, 8_300_001, 11, 100)})
	var me *maintain.MaintenanceError
	if !errors.As(err, &me) {
		t.Fatalf("panic was not converted to a MaintenanceError: %v", err)
	}
	if len(me.Failed) != 1 || me.Failed[0].View != "lc_agg" {
		t.Fatalf("Failed = %v", me.Failed)
	}
	wantState(t, m, "lc_agg", maintain.Stale)
	wantState(t, m, "lc_spj", maintain.Fresh)

	if rep := m.Repair(); len(rep.Repaired) != 1 {
		t.Fatalf("repair: %+v", rep)
	}
	checkAgainstRecompute(t, db, va)
}

// TestStrayKindViewWriteStalesOneView: a view write whose value does not
// have its column's kind is a program error — storage panics naming both
// kinds — and the guard confines it to that view: the statement commits, the
// view rolls back to its installed rows and goes Stale, and a repair heals
// it. The view is installed with VARCHAR prices so the delta's DOUBLE ones
// are the stray kind.
func TestStrayKindViewWriteStalesOneView(t *testing.T) {
	db, err := tpch.NewDatabase(0.001, 26)
	if err != nil {
		t.Fatal(err)
	}
	m := maintain.New(db)
	v, err := m.Define("stray", &spjg.Query{
		Tables: []spjg.TableRef{{Table: db.Catalog.Table("orders")}},
		Where:  expr.NewCmp(expr.GE, expr.Col(0, tpch.OTotalprice), expr.CInt(100000)),
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
			{Name: "o_totalprice", Expr: expr.Col(0, tpch.OTotalprice)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cs, _, err := m.Build(v)
	if err != nil || cs.Live() == 0 {
		t.Fatalf("build: %v", err)
	}
	rows := cs.Rows()
	for _, r := range rows {
		r[1] = sqlvalue.NewString(r[1].String())
	}
	if err := m.Install(v, storage.StoreOf(2, rows)); err != nil {
		t.Fatal(err)
	}

	err = m.Insert("orders", []storage.Row{newOrderRow(db, 8_400_001, 11, 200000)})
	var me *maintain.MaintenanceError
	if !errors.As(err, &me) || len(me.Failed) != 1 || me.Failed[0].View != "stray" {
		t.Fatalf("stray-kind write: %v", err)
	}
	if msg := me.Failed[0].Err.Error(); !strings.Contains(msg, "DOUBLE value appended to a VARCHAR column") {
		t.Fatalf("failure does not name both kinds: %s", msg)
	}
	wantState(t, m, "stray", maintain.Stale)
	if got := db.View("stray").NumRows(); got != len(rows) {
		t.Fatalf("view holds %d rows after the rollback, installed %d", got, len(rows))
	}
	if !hasOrder(db, 8_400_001) {
		t.Fatal("the statement's base write did not commit")
	}

	if rep := m.Repair(); len(rep.Repaired) != 1 {
		t.Fatalf("repair: %+v", rep)
	}
	checkAgainstRecompute(t, db, v)
}

func hasOrder(db *storage.Database, key int64) bool {
	for _, r := range db.Table("orders").Rows() {
		if r[tpch.OOrderkey].Int() == key {
			return true
		}
	}
	return false
}

// TestSelfJoinRecomputeLifecycle: a self-join view is in the same lifecycle
// as any other. A delta fault on its second term — after the first term was
// applied — rolls it back to its committed rows and makes it Stale while the
// other view over the table is maintained; later statements skip it instead
// of healing it; and Repair rebuilds it through Build, whose fault site a
// first attempt trips.
func TestSelfJoinRecomputeLifecycle(t *testing.T) {
	db, err := tpch.NewDatabase(0.001, 25)
	if err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog
	m := maintain.New(db)
	now := time.Unix(1_000_000, 0)
	m.SetClock(func() time.Time { return now })
	vp, err := register(m, "lc_pairs", nationPairs(cat))
	if err != nil {
		t.Fatal(err)
	}
	vn, err := register(m, "lc_nations", &spjg.Query{
		Tables: []spjg.TableRef{{Table: cat.Table("nation")}},
		Where:  expr.NewCmp(expr.LE, expr.Col(0, tpch.NRegionkey), expr.CInt(2)),
		Outputs: []spjg.OutputColumn{
			{Name: "n_nationkey", Expr: expr.Col(0, tpch.NNationkey)},
			{Name: "n_name", Expr: expr.Col(0, tpch.NName)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	committed := db.View("lc_pairs").Rows()
	inj := faults.New(7)
	inj.Add(faults.Rule{Site: faults.SiteMaintainDelta, Rate: 1, After: 1, Limit: 1})
	m.SetFaultInjector(inj)

	nation := func(key int64) storage.Row {
		return storage.Row{
			sqlvalue.NewInt(key), sqlvalue.NewString(fmt.Sprintf("NATION_%d", key)),
			sqlvalue.NewInt(1), sqlvalue.NewString("lifecycle"),
		}
	}
	err = m.Insert("nation", []storage.Row{nation(30)})
	var me *maintain.MaintenanceError
	if !errors.As(err, &me) || len(me.Failed) != 1 || me.Failed[0].View != "lc_pairs" ||
		len(me.Updated) != 1 || me.Updated[0] != "lc_nations" {
		t.Fatalf("delta fault on the second term not isolated: %v", err)
	}
	wantState(t, m, "lc_pairs", maintain.Stale)
	wantState(t, m, "lc_nations", maintain.Fresh)
	checkAgainstRecompute(t, db, vn)
	if !exec.SameRows(db.View("lc_pairs").Rows(), committed) {
		t.Fatal("the failed self-join kept its first term's rows")
	}

	// A later write skips the Stale view: only Repair heals it.
	err = m.Insert("nation", []storage.Row{nation(31)})
	if err != nil || inj.Stats().Injected != 1 {
		t.Fatalf("second insert: %v", err)
	}
	wantState(t, m, "lc_pairs", maintain.Stale)
	checkAgainstRecompute(t, db, vn)

	// Repair builds the view: a build fault fails the first attempt, and
	// once the backoff has passed the second one brings it Fresh.
	inj.Add(faults.Rule{Site: faults.SiteMaintainRecompute, Rate: 1, Limit: 1})
	if rep := m.Repair(); len(rep.Failed) != 1 || rep.Failed[0].View != "lc_pairs" {
		t.Fatalf("repair under a build fault: %+v", rep)
	}
	wantState(t, m, "lc_pairs", maintain.Stale)
	now = now.Add(time.Minute)
	if rep := m.Repair(); len(rep.Repaired) != 1 || rep.Repaired[0] != "lc_pairs" {
		t.Fatalf("repair: %+v", rep)
	}
	wantState(t, m, "lc_pairs", maintain.Fresh)
	checkAgainstRecompute(t, db, vp)
	if err := m.Insert("nation", []storage.Row{nation(32)}); err != nil {
		t.Fatal(err)
	}
	checkAgainstRecompute(t, db, vp)
}

// TestDeleteToZeroRemovesGroups exercises the delete-to-zero aggregation
// path directly: several groups reach COUNT_BIG = 0 in one delta while a
// surviving group is decremented in place.
func TestDeleteToZeroRemovesGroups(t *testing.T) {
	db, m, _, va := newLifecycleFixture(t, 26)
	const custA, custB, custC = 910_001, 910_002, 910_003
	var batch []storage.Row
	key := int64(8_400_000)
	for _, cust := range []int64{custA, custA, custB, custC, custC, custC} {
		key++
		batch = append(batch, newOrderRow(db, key, cust, 1000))
	}
	if err := m.Insert("orders", batch); err != nil {
		t.Fatal(err)
	}
	checkAgainstRecompute(t, db, va)

	// Delete all of A and B, and two of C's three orders, in one statement.
	n, err := m.Delete("orders", func(r storage.Row) bool {
		k := r[tpch.OOrderkey].Int()
		return k > 8_400_000 && k <= 8_400_005
	})
	if err != nil || n != 5 {
		t.Fatalf("deleted %d (%v), want 5", n, err)
	}
	mv := db.View("lc_agg")
	var foundC bool
	for _, r := range mv.Rows() {
		switch r[0].Int() {
		case custA, custB:
			t.Fatalf("group %d survived delete-to-zero", r[0].Int())
		case custC:
			foundC = true
			if r[1].Int() != 1 || r[2].Float() != 1000 {
				t.Fatalf("group C = %v, want cnt 1 total 1000", r)
			}
		}
	}
	if !foundC {
		t.Fatal("surviving group C removed")
	}
	checkAgainstRecompute(t, db, va)
	wantState(t, m, "lc_agg", maintain.Fresh)
}

func TestDropClearsLifecycle(t *testing.T) {
	db, m, _, _ := newLifecycleFixture(t, 27)
	inj := faults.New(8)
	inj.Add(faults.Rule{Site: faults.SiteMaintainApply, Rate: 1})
	m.SetFaultInjector(inj)
	if err := m.Insert("orders", []storage.Row{newOrderRow(db, 8_500_001, 13, 200_000)}); err == nil {
		t.Fatal("fault did not surface")
	}
	if got := m.ViewsInState(maintain.Stale); len(got) != 2 {
		t.Fatalf("stale views = %v", got)
	}
	ok1, err1 := m.Drop("lc_spj")
	ok2, err2 := m.Drop("lc_agg")
	if !ok1 || !ok2 || err1 != nil || err2 != nil {
		t.Fatalf("drop failed: %v %v %v %v", ok1, err1, ok2, err2)
	}
	if got := m.ViewsInState(maintain.Stale); len(got) != 0 {
		t.Fatalf("lifecycle survived drop: %v", got)
	}
	if _, ok := m.ViewState("lc_spj"); ok {
		t.Fatal("dropped view still has a lifecycle entry")
	}
}
