package maintain_test

import (
	"testing"

	"matview/internal/faults"
	"matview/internal/maintain"
	"matview/internal/sqlparser"
	"matview/internal/storage"
	"matview/internal/tpch"
)

// deferredFixture defines a view without building it: the background-create
// path, where the build runs apart from the definition and the install.
func deferredFixture(t *testing.T) (*storage.Database, *maintain.Maintainer, *maintain.View) {
	t.Helper()
	db, err := tpch.NewDatabase(0.001, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := maintain.New(db)
	def, err := sqlparser.ParseQuery(db.Catalog,
		`select o_custkey, count_big(*) as cnt, sum(o_totalprice) as total
		 from orders group by o_custkey`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Define("def_oc", def)
	if err != nil {
		t.Fatal(err)
	}
	return db, m, v
}

// TestDeferredLifecycle walks the happy path: Rebuilding on definition (no
// stored rows, DML skips it), Fresh with correct contents after
// Build+Install.
func TestDeferredLifecycle(t *testing.T) {
	db, m, v := deferredFixture(t)

	if st, ok := m.ViewState("def_oc"); !ok || st != maintain.Rebuilding {
		t.Fatalf("state after Define = %v, want Rebuilding", st)
	}
	if db.View("def_oc") != nil {
		t.Fatal("deferred view has stored rows before install")
	}

	// DML while Rebuilding: the base write lands, the half-built view is
	// skipped (nothing to maintain), and the statement succeeds.
	if err := m.Insert("orders", []storage.Row{newOrderRow(db, 999901, 42, 1234.5)}); err != nil {
		t.Fatalf("insert while rebuilding: %v", err)
	}
	if st, _ := m.ViewState("def_oc"); st != maintain.Rebuilding {
		t.Fatalf("state after DML = %v, want still Rebuilding", st)
	}

	rows, epoch, err := m.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != db.Epoch() {
		t.Fatalf("build epoch %d, database at %d", epoch, db.Epoch())
	}
	if err := m.Install(v, rows); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.ViewState("def_oc"); st != maintain.Fresh {
		t.Fatalf("state after install = %v, want Fresh", st)
	}
	// The build ran after the insert, so contents include it and match a
	// fresh recompute exactly.
	checkAgainstRecompute(t, db, v)

	// Now that it is Fresh, incremental maintenance covers it like any
	// registered view.
	if err := m.Insert("orders", []storage.Row{newOrderRow(db, 999902, 42, 99.5)}); err != nil {
		t.Fatal(err)
	}
	checkAgainstRecompute(t, db, v)
}

// TestDeferredBuildFault: a fault during the build surfaces as an error;
// quarantining the view counts it.
func TestDeferredBuildFault(t *testing.T) {
	_, m, v := deferredFixture(t)
	inj := faults.New(3)
	inj.Add(faults.Rule{Site: faults.SiteMaintainRecompute, Rate: 1, Limit: 1})
	m.SetFaultInjector(inj)

	if _, _, err := m.Build(v); err == nil {
		t.Fatal("faulted build reported success")
	} else {
		m.SetState("def_oc", maintain.Quarantined, err)
	}
	if st, _ := m.ViewState("def_oc"); st != maintain.Quarantined {
		t.Fatalf("state after failed build = %v, want Quarantined", st)
	}
	if got := m.Stats().Quarantines; got != 1 {
		t.Fatalf("quarantines = %d, want 1", got)
	}
	// Repair cannot revive it: rows rebuilt there would be stored for a view
	// the optimizer never registered.
	if err := m.RepairView("def_oc", true); err == nil {
		t.Fatal("forced repair of a never-built view succeeded")
	}

	// The clean retry path: the injector is spent, rebuild and install.
	rows, _, err := m.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Install(v, rows); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.ViewState("def_oc"); st != maintain.Fresh {
		t.Fatalf("state after retry = %v, want Fresh", st)
	}
}

// TestDeferredBuildPanicContained: a panic inside the build is converted to
// an error by the guard, not propagated.
func TestDeferredBuildPanicContained(t *testing.T) {
	_, m, v := deferredFixture(t)
	inj := faults.New(4)
	inj.Add(faults.Rule{Site: faults.SiteMaintainRecompute, Rate: 1, Limit: 1, Panic: true})
	m.SetFaultInjector(inj)
	if _, _, err := m.Build(v); err == nil {
		t.Fatal("panicking build reported success")
	}
}

// TestDeferredDuplicateName: a defined view holds its name.
func TestDeferredDuplicateName(t *testing.T) {
	db, m, _ := deferredFixture(t)
	def, err := sqlparser.ParseQuery(db.Catalog,
		"select o_custkey, count_big(*) as cnt from orders group by o_custkey")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Define("def_oc", def); err == nil {
		t.Fatal("duplicate deferred name accepted")
	}
}

// TestDeferredDropWhileRebuilding: a deferred view can be dropped before it
// is ever installed (the controller's error path) without leaving ledger
// residue, and rows built for it can no longer be installed.
func TestDeferredDropWhileRebuilding(t *testing.T) {
	db, m, v := deferredFixture(t)
	rows, _, err := m.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := m.Drop("def_oc"); !ok || err != nil {
		t.Fatalf("drop of deferred view failed: %v %v", ok, err)
	}
	if _, ok := m.ViewState("def_oc"); ok {
		t.Fatal("dropped view still in lifecycle ledger")
	}
	if err := m.Install(v, rows); err == nil {
		t.Fatal("rows installed for a dropped view")
	} else {
		m.SetState("def_oc", maintain.Quarantined, err) // what the server does with a failed install
	}
	if db.View("def_oc") != nil {
		t.Fatal("dropped view left rows behind")
	}
	if _, ok := m.ViewState("def_oc"); ok {
		t.Fatal("a failed install of a dropped view re-entered the ledger")
	}
}
