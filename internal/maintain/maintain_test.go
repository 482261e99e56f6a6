package maintain_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"matview/internal/catalog"
	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/faults"
	"matview/internal/maintain"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
	"matview/internal/tpch"
)

// register defines, builds and installs a view — the maintainer's half of a
// session's CREATE VIEW — dropping the definition again if it never installs.
func register(m *maintain.Maintainer, name string, def *spjg.Query) (*maintain.View, error) {
	v, err := m.Define(name, def)
	if err != nil {
		return nil, err
	}
	rows, _, err := m.Build(v)
	if err == nil {
		err = m.Install(v, rows)
	}
	if err != nil {
		m.Drop(name)
		return nil, err
	}
	return v, nil
}

// checkAgainstRecompute asserts a maintained view equals a fresh evaluation
// of its definition.
func checkAgainstRecompute(t *testing.T, db *storage.Database, v *maintain.View) {
	t.Helper()
	fresh, err := exec.RunQuery(db, v.Def)
	if err != nil {
		t.Fatal(err)
	}
	stored := db.View(v.Name)
	if stored == nil {
		t.Fatalf("view %s missing", v.Name)
	}
	if !exec.SameRows(stored.Rows(), fresh) {
		t.Fatalf("view %s diverged: stored %d rows, recompute %d rows",
			v.Name, stored.NumRows(), len(fresh))
	}
}

func newOrderRow(db *storage.Database, key, cust int64, price float64) storage.Row {
	return storage.Row{
		sqlvalue.NewInt(key),
		sqlvalue.NewInt(cust),
		sqlvalue.NewString("O"),
		sqlvalue.NewFloat(price),
		sqlvalue.NewDateYMD(1995, 6, 1),
		sqlvalue.NewString("3-MEDIUM"),
		sqlvalue.NewString("Clerk#000000001"),
		sqlvalue.NewInt(0),
		sqlvalue.NewString("maintained row"),
	}
}

func TestSPJViewMaintenance(t *testing.T) {
	db, err := tpch.NewDatabase(0.001, 11)
	if err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog
	m := maintain.New(db)
	def := &spjg.Query{
		Tables: []spjg.TableRef{{Table: cat.Table("orders")}},
		Where:  expr.NewCmp(expr.GE, expr.Col(0, tpch.OTotalprice), expr.CInt(100000)),
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
			{Name: "o_custkey", Expr: expr.Col(0, tpch.OCustkey)},
			{Name: "o_totalprice", Expr: expr.Col(0, tpch.OTotalprice)},
		},
	}
	v, err := register(m, "big_orders", def)
	if err != nil {
		t.Fatal(err)
	}
	before := db.View("big_orders").RowCount()

	// Insert: one row above the threshold, one below.
	err = m.Insert("orders", []storage.Row{
		newOrderRow(db, 9_000_001, 1, 250_000),
		newOrderRow(db, 9_000_002, 1, 50_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.View("big_orders").RowCount(); got != before+1 {
		t.Fatalf("after insert: %d rows, want %d", got, before+1)
	}
	checkAgainstRecompute(t, db, v)

	// Delete the inserted qualifying row.
	n, err := m.Delete("orders", func(r storage.Row) bool {
		return r[tpch.OOrderkey].Int() >= 9_000_001
	})
	if err != nil || n != 2 {
		t.Fatalf("deleted %d (%v), want 2", n, err)
	}
	if got := db.View("big_orders").RowCount(); got != before {
		t.Fatalf("after delete: %d rows, want %d", got, before)
	}
	checkAgainstRecompute(t, db, v)
}

func TestAggViewMaintenanceCountBig(t *testing.T) {
	db, err := tpch.NewDatabase(0.001, 12)
	if err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog
	m := maintain.New(db)
	def := &spjg.Query{
		Tables:  []spjg.TableRef{{Table: cat.Table("orders")}},
		GroupBy: []expr.Expr{expr.Col(0, tpch.OCustkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "o_custkey", Expr: expr.Col(0, tpch.OCustkey)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "total", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.OTotalprice)}},
		},
	}
	v, err := register(m, "cust_totals", def)
	if err != nil {
		t.Fatal(err)
	}
	groupsBefore := db.View("cust_totals").RowCount()

	// Insert three orders for a brand-new customer key (group birth) and two
	// for an existing one (group update).
	const freshCust = 900_001
	rows := []storage.Row{
		newOrderRow(db, 9_100_001, freshCust, 1000),
		newOrderRow(db, 9_100_002, freshCust, 2000),
		newOrderRow(db, 9_100_003, freshCust, 3000),
		newOrderRow(db, 9_100_004, 1, 500),
		newOrderRow(db, 9_100_005, 1, 700),
	}
	if err := m.Insert("orders", rows); err != nil {
		t.Fatal(err)
	}
	if got := db.View("cust_totals").RowCount(); got != groupsBefore+1 {
		t.Fatalf("groups after insert = %d, want %d", got, groupsBefore+1)
	}
	checkAgainstRecompute(t, db, v)
	// The new group's count and sum are exact.
	var fresh storage.Row
	for _, r := range db.View("cust_totals").Rows() {
		if r[0].Int() == freshCust {
			fresh = r
			break
		}
	}
	if fresh == nil || fresh[1].Int() != 3 || fresh[2].Float() != 6000 {
		t.Fatalf("fresh group = %v", fresh)
	}

	// Delete two of the three fresh orders: count drops to 1.
	if _, err := m.Delete("orders", func(r storage.Row) bool {
		k := r[tpch.OOrderkey].Int()
		return k == 9_100_001 || k == 9_100_002
	}); err != nil {
		t.Fatal(err)
	}
	checkAgainstRecompute(t, db, v)

	// Delete the last fresh order: COUNT_BIG reaches zero and the group row
	// must disappear — the §2 incremental-deletion rule.
	if _, err := m.Delete("orders", func(r storage.Row) bool {
		return r[tpch.OOrderkey].Int() == 9_100_003
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range db.View("cust_totals").Rows() {
		if r[0].Int() == freshCust {
			t.Fatal("empty group not removed when count reached zero")
		}
	}
	if got := db.View("cust_totals").RowCount(); got != groupsBefore {
		t.Fatalf("groups after full delete = %d, want %d", got, groupsBefore)
	}
	checkAgainstRecompute(t, db, v)
}

func TestJoinViewMaintenance(t *testing.T) {
	db, err := tpch.NewDatabase(0.001, 13)
	if err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog
	m := maintain.New(db)
	def := &spjg.Query{
		Tables: []spjg.TableRef{
			{Table: cat.Table("lineitem")},
			{Table: cat.Table("orders")},
		},
		Where:   expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
		GroupBy: []expr.Expr{expr.Col(1, tpch.OCustkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "o_custkey", Expr: expr.Col(1, tpch.OCustkey)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
		},
	}
	v, err := register(m, "cust_rev", def)
	if err != nil {
		t.Fatal(err)
	}

	// Delete some lineitems of existing orders: the join delta updates the
	// affected customer groups only.
	if _, err := m.Delete("lineitem", func(r storage.Row) bool {
		return r[tpch.LPartkey].Int() <= 20
	}); err != nil {
		t.Fatal(err)
	}
	checkAgainstRecompute(t, db, v)

	// Insert lineitems for an existing order.
	okey := db.Table("orders").RowAt(0)[tpch.OOrderkey]
	li := db.Table("lineitem").RowAt(0).Clone()
	li[tpch.LOrderkey] = okey
	li[tpch.LLinenumber] = sqlvalue.NewInt(7)
	if err := m.Insert("lineitem", []storage.Row{li}); err != nil {
		t.Fatal(err)
	}
	checkAgainstRecompute(t, db, v)
}

// liOrdersCust is the view grouping lineitem ⋈ orders by o_custkey, with the
// two tables named in the given FROM order.
func liOrdersCust(cat *catalog.Catalog, from ...string) *spjg.Query {
	li, o := 0, 1
	if from[0] == "orders" {
		li, o = 1, 0
	}
	return &spjg.Query{
		Tables:  []spjg.TableRef{{Table: cat.Table(from[0])}, {Table: cat.Table(from[1])}},
		Where:   expr.Eq(expr.Col(li, tpch.LOrderkey), expr.Col(o, tpch.OOrderkey)),
		GroupBy: []expr.Expr{expr.Col(o, tpch.OCustkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "o_custkey", Expr: expr.Col(o, tpch.OCustkey)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(li, tpch.LQuantity)}},
		},
	}
}

// TestDeltaCostsItsDelta: a 10-row INSERT INTO lineitem through a view
// joining lineitem to orders probes at most two blocks' worth of orders rows
// and reads at most three blocks — Δ leads and probes orders by key — and
// the count does not grow with orders (SF 0.01, and four times larger). The
// statement measured is the second: the first builds orders' locator on
// o_orderkey, reading every block of orders once (TestSelfJoinDeltaReadsOnlyDelta
// pins that). TestJoinDeltaProbesOrdersByKey pins the exact counts.
func TestDeltaCostsItsDelta(t *testing.T) {
	for _, sf := range []float64{0.01, 0.04} {
		db, err := tpch.NewDatabase(sf, 3)
		if err != nil {
			t.Fatal(err)
		}
		orders := db.Table("orders")
		m := maintain.New(db)
		v, err := register(m, "li_orders", liOrdersCust(db.Catalog, "lineitem", "orders"))
		if err != nil {
			t.Fatal(err)
		}
		// Ten lineitems of ten consecutive orders halfway through orders.
		var rows []storage.Row
		for k := 0; k < 10; k++ {
			r := db.Table("lineitem").RowAt(k).Clone()
			r[tpch.LOrderkey] = orders.RowAt(orders.NumRows()/2 + k)[tpch.OOrderkey]
			r[tpch.LLinenumber] = sqlvalue.NewInt(10)
			rows = append(rows, r)
		}
		if err := m.Insert("lineitem", rows); err != nil {
			t.Fatal(err)
		}
		if err := deleteMarked(m)(); err != nil {
			t.Fatal(err)
		}
		before := exec.ReadScanStats()
		if err := m.Insert("lineitem", rows); err != nil {
			t.Fatal(err)
		}
		after := exec.ReadScanStats()
		if probed := after.RowsProbed - before.RowsProbed; probed > 2*storage.BlockRows {
			t.Errorf("SF %g: the delta probed %d rows of %d orders, want at most %d",
				sf, probed, orders.NumRows(), 2*storage.BlockRows)
		}
		// The delta's one block and two of orders.
		if read := after.BlocksScanned - before.BlocksScanned; read > 3 {
			t.Errorf("SF %g: the delta read %d blocks, want at most 3", sf, read)
		}
		checkAgainstRecompute(t, db, v)
	}
}

// nationPairs is a self-join: the pairs of nations in one region.
func nationPairs(cat *catalog.Catalog) *spjg.Query {
	return &spjg.Query{
		Tables: []spjg.TableRef{
			{Table: cat.Table("nation"), Alias: "a"},
			{Table: cat.Table("nation"), Alias: "b"},
		},
		Where: expr.Eq(expr.Col(0, tpch.NRegionkey), expr.Col(1, tpch.NRegionkey)),
		Outputs: []spjg.OutputColumn{
			{Name: "a_name", Expr: expr.Col(0, tpch.NName)},
			{Name: "b_name", Expr: expr.Col(1, tpch.NName)},
		},
	}
}

// TestSelfJoinMaintainedByDelta: a view reading nation twice absorbs an
// INSERT and a DELETE through its delta terms. With every build failing
// after the view is built, the statements still leave it Fresh and equal to
// its recompute — nothing on the statement path computes it from scratch.
func TestSelfJoinMaintainedByDelta(t *testing.T) {
	db, err := tpch.NewDatabase(0.001, 14)
	if err != nil {
		t.Fatal(err)
	}
	m := maintain.New(db)
	v, err := register(m, "nation_pairs", nationPairs(db.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(5)
	inj.Add(faults.Rule{Site: faults.SiteMaintainRecompute, Rate: 1})
	m.SetFaultInjector(inj)

	// Two new nations in region 0, so the insert's delta holds pairs of new
	// rows as well as pairs of a new row with an old one.
	if err := m.Insert("nation", []storage.Row{
		{sqlvalue.NewInt(25), sqlvalue.NewString("NATION_25"), sqlvalue.NewInt(0), sqlvalue.NewString("new")},
		{sqlvalue.NewInt(26), sqlvalue.NewString("NATION_26"), sqlvalue.NewInt(0), sqlvalue.NewString("new")},
	}); err != nil {
		t.Fatal(err)
	}
	wantState(t, m, "nation_pairs", maintain.Fresh)
	checkAgainstRecompute(t, db, v)
	if _, err := m.Delete("nation", func(r storage.Row) bool {
		k := r[tpch.NNationkey].Int()
		return k == 25 || k == 0
	}); err != nil {
		t.Fatal(err)
	}
	wantState(t, m, "nation_pairs", maintain.Fresh)
	checkAgainstRecompute(t, db, v)
	if n := inj.Stats().BySite[faults.SiteMaintainRecompute]; n != 0 {
		t.Fatalf("the statements built the view %d time(s)", n)
	}
}

// TestDefineRefusesNullableSum: a SUM whose argument can be NULL cannot be
// maintained under deletes — with addends NULL and 5, deleting the 5 leaves
// SQL's SUM NULL while the merge subtracts it to 0 — so Define refuses it,
// as SQL Server does for indexed views: a division (NULL on a zero divisor),
// a column without NOT NULL, a NULL literal. Non-nullable sums still define.
func TestDefineRefusesNullableSum(t *testing.T) {
	db, err := tpch.NewDatabase(0.001, 17)
	if err != nil {
		t.Fatal(err)
	}
	m := maintain.New(db)
	rollup := func(arg expr.Expr) *spjg.Query {
		return &spjg.Query{
			Tables:  []spjg.TableRef{{Table: db.Catalog.Table("lineitem")}},
			GroupBy: []expr.Expr{expr.Col(0, tpch.LShipmode)},
			Outputs: []spjg.OutputColumn{
				{Name: "l_shipmode", Expr: expr.Col(0, tpch.LShipmode)},
				{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
				{Name: "s", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: arg}},
			},
		}
	}
	price, disc := expr.Col(0, tpch.LExtendedprice), expr.Col(0, tpch.LDiscount)
	for name, arg := range map[string]expr.Expr{
		"ratio":   expr.NewArith(expr.Div, price, disc),
		"literal": expr.NewArith(expr.Add, price, expr.C(sqlvalue.Null)),
	} {
		if _, err := m.Define(name, rollup(arg)); err == nil || !strings.Contains(err.Error(), "can be NULL") {
			t.Errorf("SUM %s defined: %v", name, err)
		}
	}
	revenue := expr.NewArith(expr.Mul, price, expr.NewArith(expr.Sub, expr.CInt(1), disc))
	if _, err := register(m, "revenue", rollup(revenue)); err != nil {
		t.Fatalf("a non-nullable SUM was refused: %v", err)
	}

	cat := catalog.New()
	if err := cat.Add(&catalog.Table{Name: "t", Columns: []catalog.Column{
		{Name: "k", Type: sqlvalue.KindInt, NotNull: true},
		{Name: "x", Type: sqlvalue.KindInt},
	}}); err != nil {
		t.Fatal(err)
	}
	nullable := &spjg.Query{
		Tables:  []spjg.TableRef{{Table: cat.Table("t")}},
		GroupBy: []expr.Expr{expr.Col(0, 0)},
		Outputs: []spjg.OutputColumn{
			{Name: "k", Expr: expr.Col(0, 0)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "x", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, 1)}},
		},
	}
	if _, err := maintain.New(storage.NewDatabase(cat)).Define("nullable", nullable); err == nil {
		t.Error("SUM over a nullable column defined")
	}
}

func TestMaintainErrors(t *testing.T) {
	db, err := tpch.NewDatabase(0.001, 15)
	if err != nil {
		t.Fatal(err)
	}
	m := maintain.New(db)
	if err := m.Insert("ghost", nil); err == nil {
		t.Error("insert into unknown table accepted")
	}
	if _, err := m.Delete("ghost", func(storage.Row) bool { return false }); err == nil {
		t.Error("delete from unknown table accepted")
	}
	// A view without COUNT_BIG is rejected at registration (ValidateAsView).
	bad := &spjg.Query{
		Tables:  []spjg.TableRef{{Table: db.Catalog.Table("orders")}},
		GroupBy: []expr.Expr{expr.Col(0, tpch.OCustkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "k", Expr: expr.Col(0, tpch.OCustkey)},
			{Name: "s", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.OTotalprice)}},
		},
	}
	if _, err := register(m, "bad", bad); err == nil {
		t.Error("aggregation view without COUNT_BIG registered")
	}
}

// TestDuplicateViewNameRefused: the maintainer is the registry of record, so
// a second view under a held name is refused before anything is stored —
// two entries of one name would each take every statement's delta.
func TestDuplicateViewNameRefused(t *testing.T) {
	db, m, _, va := newLifecycleFixture(t, 28)
	if _, err := register(m, "lc_agg", va.Def); err == nil {
		t.Fatal("second view named lc_agg accepted")
	}
	if n := len(m.Views()); n != 2 {
		t.Fatalf("maintainer holds %d views, want 2", n)
	}
	if err := m.Insert("orders", []storage.Row{newOrderRow(db, 8_600_001, 14, 900)}); err != nil {
		t.Fatal(err)
	}
	checkAgainstRecompute(t, db, va)
}

// TestMaintenanceRandomChurn applies random insert/delete batches to orders
// and lineitem and checks the maintained views never diverge from
// recomputation — among them a join written with the changed table second,
// a three-table join, and two self-joins of orders whose writes fold in one
// delta term per instance.
func TestMaintenanceRandomChurn(t *testing.T) {
	db, err := tpch.NewDatabase(0.001, 16)
	if err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog
	m := maintain.New(db)
	defs := []*spjg.Query{
		{
			Tables:  []spjg.TableRef{{Table: cat.Table("orders")}},
			GroupBy: []expr.Expr{expr.Col(0, tpch.OCustkey)},
			Outputs: []spjg.OutputColumn{
				{Name: "o_custkey", Expr: expr.Col(0, tpch.OCustkey)},
				{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
				{Name: "total", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.OTotalprice)}},
			},
		},
		{
			Tables: []spjg.TableRef{{Table: cat.Table("orders")}},
			Where:  expr.NewCmp(expr.GE, expr.Col(0, tpch.OTotalprice), expr.CInt(200000)),
			Outputs: []spjg.OutputColumn{
				{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
				{Name: "o_totalprice", Expr: expr.Col(0, tpch.OTotalprice)},
			},
		},
		liOrdersCust(cat, "orders", "lineitem"),
		{
			Tables: []spjg.TableRef{
				{Table: cat.Table("lineitem")}, {Table: cat.Table("orders")}, {Table: cat.Table("customer")},
			},
			Where: expr.NewAnd(
				expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
				expr.Eq(expr.Col(1, tpch.OCustkey), expr.Col(2, tpch.CCustkey))),
			GroupBy: []expr.Expr{expr.Col(2, tpch.CNationkey)},
			Outputs: []spjg.OutputColumn{
				{Name: "c_nationkey", Expr: expr.Col(2, tpch.CNationkey)},
				{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
				{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
			},
		},
		{
			// Per customer, the count and value of its pairs of orders whose
			// second order is a large one.
			Tables: []spjg.TableRef{
				{Table: cat.Table("orders"), Alias: "a"}, {Table: cat.Table("orders"), Alias: "b"},
			},
			Where: expr.NewAnd(
				expr.Eq(expr.Col(0, tpch.OCustkey), expr.Col(1, tpch.OCustkey)),
				expr.NewCmp(expr.GE, expr.Col(1, tpch.OTotalprice), expr.CInt(250000))),
			GroupBy: []expr.Expr{expr.Col(0, tpch.OCustkey)},
			Outputs: []spjg.OutputColumn{
				{Name: "o_custkey", Expr: expr.Col(0, tpch.OCustkey)},
				{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
				{Name: "total", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(1, tpch.OTotalprice)}},
			},
		},
		{
			// A large order beside every order of the same customer.
			Tables: []spjg.TableRef{
				{Table: cat.Table("orders"), Alias: "a"}, {Table: cat.Table("customer")},
				{Table: cat.Table("orders"), Alias: "b"},
			},
			Where: expr.NewAnd(
				expr.Eq(expr.Col(0, tpch.OCustkey), expr.Col(1, tpch.CCustkey)),
				expr.Eq(expr.Col(2, tpch.OCustkey), expr.Col(1, tpch.CCustkey)),
				expr.NewCmp(expr.GE, expr.Col(0, tpch.OTotalprice), expr.CInt(300000))),
			Outputs: []spjg.OutputColumn{
				{Name: "a_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
				{Name: "c_name", Expr: expr.Col(1, tpch.CName)},
				{Name: "b_orderkey", Expr: expr.Col(2, tpch.OOrderkey)},
				{Name: "b_totalprice", Expr: expr.Col(2, tpch.OTotalprice)},
			},
		},
	}
	var views []*maintain.View
	for i, def := range defs {
		v, err := register(m, fmt.Sprintf("churn%d", i), def)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	r := rand.New(rand.NewSource(88))
	nextKey, nextLine := int64(10_000_000), int64(100)
	for round := 0; round < 24; round++ {
		switch r.Intn(4) {
		case 2: // lineitems of random order keys, present or not
			var batch []storage.Row
			for i := 0; i < 1+r.Intn(20); i++ {
				li := db.Table("lineitem").RowAt(r.Intn(1000)).Clone()
				nextLine++
				li[tpch.LOrderkey] = sqlvalue.NewInt(1 + r.Int63n(6000))
				li[tpch.LLinenumber] = sqlvalue.NewInt(nextLine)
				batch = append(batch, li)
			}
			if err := m.Insert("lineitem", batch); err != nil {
				t.Fatalf("round %d lineitem insert: %v", round, err)
			}
		case 3:
			lo := r.Int63n(6000)
			hi := lo + r.Int63n(300)
			if _, err := m.Delete("lineitem", func(row storage.Row) bool {
				k := row[tpch.LOrderkey].Int()
				return k >= lo && k <= hi
			}); err != nil {
				t.Fatalf("round %d lineitem delete: %v", round, err)
			}
		case 0:
			var batch []storage.Row
			for i := 0; i < 1+r.Intn(20); i++ {
				nextKey++
				batch = append(batch, newOrderRow(db, nextKey,
					1+r.Int63n(100), float64(1000+r.Intn(500000))))
			}
			if err := m.Insert("orders", batch); err != nil {
				t.Fatalf("round %d insert: %v", round, err)
			}
		default:
			lo := r.Int63n(6000)
			hi := lo + r.Int63n(500)
			if _, err := m.Delete("orders", func(row storage.Row) bool {
				k := row[tpch.OOrderkey].Int()
				return k >= lo && k <= hi
			}); err != nil {
				t.Fatalf("round %d delete: %v", round, err)
			}
		}
		for _, v := range views {
			checkAgainstRecompute(t, db, v)
		}
	}
}

// TestBuildStoresClusteredOrder: Build returns an aggregate view's rows in
// the order of its grouping columns, NULL keys last, and Install stores them
// as handed.
func TestBuildStoresClusteredOrder(t *testing.T) {
	cat := catalog.New()
	if err := cat.Add(&catalog.Table{Name: "t", Columns: []catalog.Column{
		{Name: "k", Type: sqlvalue.KindInt, NotNull: true},
		{Name: "g", Type: sqlvalue.KindInt},
		{Name: "x", Type: sqlvalue.KindInt, NotNull: true},
	}}); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		g := sqlvalue.NewInt(int64(rng.Intn(500)))
		if rng.Intn(20) == 0 {
			g = sqlvalue.Null
		}
		if err := db.Table("t").Insert(storage.Row{sqlvalue.NewInt(int64(rng.Intn(3))), g, sqlvalue.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	db.Commit()
	m := maintain.New(db)
	def := &spjg.Query{
		Tables:  []spjg.TableRef{{Table: cat.Table("t")}},
		GroupBy: []expr.Expr{expr.Col(0, 1), expr.Col(0, 0)},
		Outputs: []spjg.OutputColumn{
			{Name: "g", Expr: expr.Col(0, 1)},
			{Name: "k", Expr: expr.Col(0, 0)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "x", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, 2)}},
		},
	}
	v, err := register(m, "clustered", def)
	if err != nil {
		t.Fatal(err)
	}
	rows := db.View("clustered").Rows()
	nonNull := 0
	for i, r := range rows {
		if !r[0].IsNull() {
			nonNull++
		}
		if i == 0 {
			continue
		}
		p := rows[i-1]
		if p[0].IsNull() && !r[0].IsNull() {
			t.Fatalf("row %d: key %v after a NULL key", i, r[0])
		}
		g, _ := sqlvalue.Compare(p[0], r[0])
		k, _ := sqlvalue.Compare(p[1], r[1])
		if !r[0].IsNull() && (g > 0 || g == 0 && k >= 0) || p[0].IsNull() && r[0].IsNull() && k >= 0 {
			t.Fatalf("rows %d and %d out of key order: %v, %v", i-1, i, p, r)
		}
	}
	if nonNull == 0 || nonNull == len(rows) {
		t.Fatalf("%d of %d groups have a key: want both kinds", nonNull, len(rows))
	}
	checkAgainstRecompute(t, db, v)
}

// TestGroupUpdatedInPlace: statements that only change existing groups —
// INSERTs of orders for customers the view holds, and DELETEs of some of
// those orders again — update each group where it lies. The view keeps its
// length with no dead row, its store is the one it had (no rewrite), and its
// key index files every key under the ordinal it had.
func TestGroupUpdatedInPlace(t *testing.T) {
	db, err := tpch.NewDatabase(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog
	m := maintain.New(db)
	v, err := register(m, "by_cust", &spjg.Query{
		Tables:  []spjg.TableRef{{Table: cat.Table("orders")}},
		GroupBy: []expr.Expr{expr.Col(0, tpch.OCustkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "c", Expr: expr.Col(0, tpch.OCustkey)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "total", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.OTotalprice)}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mv := db.View(v.Name)
	if _, err := mv.BuildIndex([]int{0}, true); err != nil {
		t.Fatal(err)
	}
	db.Commit()
	st, n := mv.Store(), mv.Store().Len()
	if st.NumBlocks() < 2 {
		t.Fatalf("the view spans %d block(s), want at least 2", st.NumBlocks())
	}
	keyOf := func(i int) storage.Row { return storage.Row{st.Value(i, 0)} }
	rng := rand.New(rand.NewSource(9))
	next := int64(10_000_000)
	for s := range 40 {
		if s%4 == 3 { // the previous statement's orders go again
			if _, err := m.DeleteWhere("orders", expr.NewCmp(expr.GE, expr.Col(0, tpch.OOrderkey), expr.CInt(next-5))); err != nil {
				t.Fatal(err)
			}
			continue
		}
		batch := make([]storage.Row, 5)
		for i := range batch {
			next++
			batch[i] = newOrderRow(db, next, keyOf(rng.Intn(n))[0].Int(), float64(rng.Intn(9000)))
		}
		if err := m.Insert("orders", batch); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstRecompute(t, db, v)
	if mv := db.View(v.Name); mv.Store() != st || st.Len() != n || st.Live() != n {
		t.Fatalf("after updates of existing groups: store replaced %t, %d rows, %d live; it had %d", mv.Store() != st, st.Len(), st.Live(), n)
	}
	idx, _ := db.View(v.Name).Locator([]int{0})
	for i := range n {
		if got := idx.Probe(keyOf(i)); len(got) != 1 || got[0] != i {
			t.Fatalf("key %v: the index files %v, it filed ordinal %d", keyOf(i), got, i)
		}
	}
}
