package core

import (
	"slices"
	"testing"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/tpch"
)

// example3View builds the paper's Example 3 view:
//
//	SELECT c_custkey, c_name, l_orderkey, l_partkey, l_quantity
//	FROM lineitem, orders, customer
//	WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
//	  AND o_orderkey >= 500
//
// Instances: 0 = lineitem, 1 = orders, 2 = customer.
func example3View() *spjg.Query {
	return &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("orders"), tref("customer")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			expr.Eq(expr.Col(1, tpch.OCustkey), expr.Col(2, tpch.CCustkey)),
			expr.NewCmp(expr.GE, expr.Col(1, tpch.OOrderkey), expr.CInt(500)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "c_custkey", Expr: expr.Col(2, tpch.CCustkey)},
			{Name: "c_name", Expr: expr.Col(2, tpch.CName)},
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
		},
	}
}

// example3Query builds the paper's Example 3 query:
//
//	SELECT l_orderkey, l_partkey, l_quantity FROM lineitem
//	WHERE l_orderkey BETWEEN 1000 AND 1500 AND l_shipdate = l_commitdate
func example3Query() *spjg.Query {
	return &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem")},
		Where: expr.NewAnd(
			expr.NewCmp(expr.GE, expr.Col(0, tpch.LOrderkey), expr.CInt(1000)),
			expr.NewCmp(expr.LE, expr.Col(0, tpch.LOrderkey), expr.CInt(1500)),
			expr.Eq(expr.Col(0, tpch.LShipdate), expr.Col(0, tpch.LCommitdate)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
		},
	}
}

func TestExtraTablesEliminated(t *testing.T) {
	m := defaultMatcher()
	v := mustView(t, m, 0, "v3", example3View())
	// Example 3's query additionally references l_shipdate/l_commitdate which
	// the view does not output; use the range-only part here and test the
	// full example in paper_examples_test.go.
	q := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem")},
		Where: expr.NewAnd(
			expr.NewCmp(expr.GE, expr.Col(0, tpch.LOrderkey), expr.CInt(1000)),
			expr.NewCmp(expr.LE, expr.Col(0, tpch.LOrderkey), expr.CInt(1500)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
		},
	})
	sub := m.Match(q, v)
	if sub == nil {
		t.Fatal("extra tables joined through FKs must be eliminable")
	}
	// Compensating predicates: l_orderkey >= 1000 and l_orderkey <= 1500.
	and, ok := sub.Filter.(expr.And)
	if !ok || len(and.Args) != 2 {
		t.Fatalf("filter = %v", sub.Filter)
	}
}

func TestExtraTableWithoutFKRejected(t *testing.T) {
	m := defaultMatcher()
	// Join orders to customer on a NON-foreign-key equijoin: o_custkey to
	// c_nationkey. No cardinality preservation → reject.
	v := mustView(t, m, 0, "v", &spjg.Query{
		Tables: []spjg.TableRef{tref("orders"), tref("customer")},
		Where:  expr.Eq(expr.Col(0, tpch.OCustkey), expr.Col(1, tpch.CNationkey)),
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
		},
	})
	q := mustValidate(t, &spjg.Query{
		Tables:  []spjg.TableRef{tref("orders")},
		Outputs: []spjg.OutputColumn{{Name: "k", Expr: expr.Col(0, tpch.OOrderkey)}},
	})
	if m.Match(q, v) != nil {
		t.Fatal("non-FK join must not be cardinality preserving")
	}
}

func TestExtraTableCartesianRejected(t *testing.T) {
	m := defaultMatcher()
	// View with a cartesian extra table (no join at all).
	v := mustView(t, m, 0, "v", &spjg.Query{
		Tables: []spjg.TableRef{tref("orders"), tref("region")},
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
		},
	})
	q := mustValidate(t, &spjg.Query{
		Tables:  []spjg.TableRef{tref("orders")},
		Outputs: []spjg.OutputColumn{{Name: "k", Expr: expr.Col(0, tpch.OOrderkey)}},
	})
	if m.Match(q, v) != nil {
		t.Fatal("cartesian extra table accepted")
	}
}

func TestExtraTableChainEliminated(t *testing.T) {
	m := defaultMatcher()
	// orders → customer → nation → region: a three-link FK chain, all extra.
	v := mustView(t, m, 0, "v", &spjg.Query{
		Tables: []spjg.TableRef{tref("orders"), tref("customer"), tref("nation"), tref("region")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.OCustkey), expr.Col(1, tpch.CCustkey)),
			expr.Eq(expr.Col(1, tpch.CNationkey), expr.Col(2, tpch.NNationkey)),
			expr.Eq(expr.Col(2, tpch.NRegionkey), expr.Col(3, tpch.RRegionkey)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
			{Name: "o_totalprice", Expr: expr.Col(0, tpch.OTotalprice)},
		},
	})
	q := mustValidate(t, &spjg.Query{
		Tables:  []spjg.TableRef{tref("orders")},
		Outputs: []spjg.OutputColumn{{Name: "k", Expr: expr.Col(0, tpch.OOrderkey)}},
	})
	if m.Match(q, v) == nil {
		t.Fatal("FK chain of extra tables not eliminated")
	}
}

func TestExtraTablePartialQueryOverlap(t *testing.T) {
	m := defaultMatcher()
	// View: lineitem ⋈ orders ⋈ customer. Query: lineitem ⋈ orders.
	// Only customer is extra.
	v := mustView(t, m, 0, "v3", example3View())
	q := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("orders")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			expr.NewCmp(expr.GE, expr.Col(1, tpch.OOrderkey), expr.CInt(500)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
		},
	})
	sub := m.Match(q, v)
	if sub == nil {
		t.Fatal("single extra table not eliminated")
	}
	if sub.Filter != nil {
		t.Errorf("identical predicates need no compensation: %v", sub.Filter)
	}
}

// nullableFKCatalog builds a two-table catalog where the child's FK column
// allows NULL — the case at the end of §3.2.
func nullableFKCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if err := c.Add(&catalog.Table{
		Name: "s",
		Columns: []catalog.Column{
			{Name: "id", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "payload", Type: sqlvalue.KindInt, NotNull: true},
		},
		PrimaryKey: []int{0},
		RowCount:   100,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "f", Type: sqlvalue.KindInt, NotNull: false}, // nullable FK
		},
		PrimaryKey: []int{0},
		Foreign: []catalog.ForeignKey{
			{Name: "fk_t_s", Columns: []int{1}, RefTable: "s", RefColumns: []int{0}},
		},
		RowCount: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNullableFKRejectedByDefault(t *testing.T) {
	c := nullableFKCatalog(t)
	m := NewMatcher(c, MatchOptions{})
	view := &spjg.Query{
		Tables: []spjg.TableRef{{Table: c.Table("t")}, {Table: c.Table("s")}},
		Where:  expr.Eq(expr.Col(0, 1), expr.Col(1, 0)),
		Outputs: []spjg.OutputColumn{
			{Name: "id", Expr: expr.Col(0, 0)},
			{Name: "f", Expr: expr.Col(0, 1)},
		},
	}
	v := mustView(t, m, 0, "v", view)
	// Query with a null-rejecting predicate on t.f.
	q := mustValidate(t, &spjg.Query{
		Tables:  []spjg.TableRef{{Table: c.Table("t")}},
		Where:   expr.NewCmp(expr.GT, expr.Col(0, 1), expr.CInt(50)),
		Outputs: []spjg.OutputColumn{{Name: "id", Expr: expr.Col(0, 0)}},
	})
	if m.Match(q, v) != nil {
		t.Fatal("nullable FK join accepted without relaxation")
	}
}

func TestNullableFKRelaxation(t *testing.T) {
	c := nullableFKCatalog(t)
	m := NewMatcher(c, MatchOptions{NullRejectingFKRelaxation: true})
	view := &spjg.Query{
		Tables: []spjg.TableRef{{Table: c.Table("t")}, {Table: c.Table("s")}},
		Where:  expr.Eq(expr.Col(0, 1), expr.Col(1, 0)),
		Outputs: []spjg.OutputColumn{
			{Name: "id", Expr: expr.Col(0, 0)},
			{Name: "f", Expr: expr.Col(0, 1)},
		},
	}
	v := mustView(t, m, 0, "v", view)
	// With a null-rejecting range predicate on t.f the join preserves the
	// needed subset of rows (§3.2).
	withPred := mustValidate(t, &spjg.Query{
		Tables:  []spjg.TableRef{{Table: c.Table("t")}},
		Where:   expr.NewCmp(expr.GT, expr.Col(0, 1), expr.CInt(50)),
		Outputs: []spjg.OutputColumn{{Name: "id", Expr: expr.Col(0, 0)}},
	})
	if m.Match(withPred, v) == nil {
		t.Fatal("relaxation enabled but null-rejecting query rejected")
	}
	// IS NOT NULL also counts as null-rejecting.
	isNotNull := mustValidate(t, &spjg.Query{
		Tables:  []spjg.TableRef{{Table: c.Table("t")}},
		Where:   expr.IsNull{E: expr.Col(0, 1), Negate: true},
		Outputs: []spjg.OutputColumn{{Name: "id", Expr: expr.Col(0, 0)}},
	})
	if m.Match(isNotNull, v) == nil {
		t.Fatal("IS NOT NULL not recognized as null-rejecting")
	}
	// Without any null-rejecting predicate the rows with NULL f are missing
	// from the view → still rejected.
	noPred := mustValidate(t, &spjg.Query{
		Tables:  []spjg.TableRef{{Table: c.Table("t")}},
		Outputs: []spjg.OutputColumn{{Name: "id", Expr: expr.Col(0, 0)}},
	})
	if m.Match(noPred, v) != nil {
		t.Fatal("relaxation must still require a null-rejecting predicate")
	}
}

func TestHubComputation(t *testing.T) {
	m := defaultMatcher()
	// Example 3's view: customer and orders eliminable → hub = {lineitem}.
	v := mustView(t, m, 0, "v3", example3View())
	if len(v.Hub) != 1 || v.Hub[0] != 0 {
		t.Fatalf("hub = %v, want [0] (lineitem)", v.Hub)
	}

	// Range predicate on a trivial-class column of orders (o_totalprice)
	// keeps orders in the hub (§4.2.2 refinement); customer, deletable from
	// orders, is still removed.
	withPred := example3View()
	withPred.Where = expr.NewAnd(withPred.Where,
		expr.NewCmp(expr.GT, expr.Col(1, tpch.OTotalprice), expr.CInt(1000)))
	v2 := mustView(t, m, 1, "v3b", withPred)
	if len(v2.Hub) != 2 {
		t.Fatalf("hub = %v, want [lineitem orders]", v2.Hub)
	}

	// Range predicate on a NON-trivial-class column (o_orderkey, equivalent
	// to l_orderkey) does not block elimination — Example 3 itself has
	// o_orderkey >= 500 and still reduces to {lineitem}.
}

func TestHubMultipleIncomingEdges(t *testing.T) {
	m := defaultMatcher()
	// Both lineitem and partsupp reference supplier: supplier has two
	// incoming edges and must stay (the paper requires exactly one).
	v := mustView(t, m, 0, "v", &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("partsupp"), tref("supplier")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LPartkey), expr.Col(1, tpch.PsPartkey)),
			expr.Eq(expr.Col(0, tpch.LSuppkey), expr.Col(1, tpch.PsSuppkey)),
			expr.Eq(expr.Col(0, tpch.LSuppkey), expr.Col(2, tpch.SSuppkey)),
			expr.Eq(expr.Col(1, tpch.PsSuppkey), expr.Col(2, tpch.SSuppkey)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
		},
	})
	for _, ti := range v.Hub {
		if v.Def.Tables[ti].Table.Name == "supplier" {
			return
		}
	}
	t.Fatalf("supplier with two incoming edges left the hub: %v", v.Hub)
}

func TestCompositeFKElimination(t *testing.T) {
	m := defaultMatcher()
	// lineitem → partsupp via the composite FK (l_partkey, l_suppkey): both
	// columns must be equated for the edge to exist.
	full := mustView(t, m, 0, "full", &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("partsupp")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LPartkey), expr.Col(1, tpch.PsPartkey)),
			expr.Eq(expr.Col(0, tpch.LSuppkey), expr.Col(1, tpch.PsSuppkey)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
		},
	})
	q := mustValidate(t, &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem")},
		Outputs: []spjg.OutputColumn{{Name: "k", Expr: expr.Col(0, tpch.LOrderkey)}},
	})
	if m.Match(q, full) == nil {
		t.Fatal("composite FK join not eliminated")
	}

	// Only one of the two FK columns equated → not cardinality preserving.
	partial := mustView(t, m, 1, "partial", &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("partsupp")},
		Where:  expr.Eq(expr.Col(0, tpch.LPartkey), expr.Col(1, tpch.PsPartkey)),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
		},
	})
	if m.Match(q, partial) != nil {
		t.Fatal("partial composite FK join accepted")
	}
}

func TestSelfJoinInstanceMapping(t *testing.T) {
	m := defaultMatcher()
	// View: customer ⋈ nation (c), supplier ⋈ nation (s): two nation
	// instances. Query: customer ⋈ nation only. The matcher must map the
	// query's nation to the customer-side instance (and eliminate supplier +
	// the other nation), regardless of declaration order.
	view := &spjg.Query{
		Tables: []spjg.TableRef{
			tref("supplier"), trefAs("nation", "sn"),
			tref("customer"), trefAs("nation", "cn"),
		},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.SNationkey), expr.Col(1, tpch.NNationkey)),
			expr.Eq(expr.Col(2, tpch.CNationkey), expr.Col(3, tpch.NNationkey)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "c_custkey", Expr: expr.Col(2, tpch.CCustkey)},
			{Name: "cn_name", Expr: expr.Col(3, tpch.NName)},
			{Name: "s_suppkey", Expr: expr.Col(0, tpch.SSuppkey)},
		},
	}
	// Supplier itself is not eliminable (nothing references it), so include
	// it in the query; the two nations force mapping enumeration.
	v := mustView(t, m, 0, "v", view)
	q := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("customer"), tref("nation"), tref("supplier")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.CNationkey), expr.Col(1, tpch.NNationkey)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "c_custkey", Expr: expr.Col(0, tpch.CCustkey)},
			{Name: "n_name", Expr: expr.Col(1, tpch.NName)},
			{Name: "s_suppkey", Expr: expr.Col(2, tpch.SSuppkey)},
		},
	})
	sub := m.Match(q, v)
	if sub == nil {
		t.Fatal("self-join instance mapping failed")
	}
	// n_name must resolve to the customer-side nation's name (view output 1).
	col, ok := sub.Outputs[1].Expr.(expr.Column)
	if !ok || col.Ref.Col != 1 {
		t.Errorf("n_name mapped to output %v, want 1", sub.Outputs[1].Expr)
	}
}

// allMappings collects the alignments of q's table instances to v's, in the
// order Match tries them.
func allMappings(q, v *spjg.Query, limit int) [][]int {
	al := alignment{mapping: make([]int, len(q.Tables)), taken: make([]bool, len(v.Tables))}
	var out [][]int
	al.each(q.Tables, v.Tables, defaultMatcher().NewQueryContext(q).tablesByName(), 0, limit, func() bool {
		out = append(out, append([]int(nil), al.mapping...))
		return false
	})
	return out
}

func TestInstanceMappingEnumeration(t *testing.T) {
	q := &spjg.Query{
		Tables:  []spjg.TableRef{tref("nation")},
		Outputs: []spjg.OutputColumn{{Expr: expr.Col(0, 0)}},
	}
	v := &spjg.Query{
		Tables:  []spjg.TableRef{trefAs("nation", "n1"), trefAs("nation", "n2")},
		Outputs: []spjg.OutputColumn{{Expr: expr.Col(0, 0)}},
	}
	if maps := allMappings(q, v, 16); len(maps) != 2 {
		t.Fatalf("1 nation into 2 instances: %d mappings, want 2", len(maps))
	}
	// Query needing more instances than the view has → none.
	if got := allMappings(v, q, 16); got != nil {
		t.Fatalf("2 nations into 1 instance: %v mappings, want none", got)
	}
	// Cap respected.
	big := &spjg.Query{Tables: []spjg.TableRef{
		trefAs("nation", "a"), trefAs("nation", "b"), trefAs("nation", "c"),
	}, Outputs: []spjg.OutputColumn{{Expr: expr.Col(0, 0)}}}
	if got := allMappings(big, big, 4); len(got) != 4 {
		t.Fatalf("cap of 4: %d mappings", len(got))
	}

	// Order: table names in sorted order, the first name varying slowest;
	// within a name, query instances in FROM order over the view's instances
	// in FROM order. The first alignment that matches wins, so the order is
	// part of the matcher's observable behaviour.
	q2 := &spjg.Query{Tables: []spjg.TableRef{
		trefAs("region", "r1"), trefAs("nation", "a"), trefAs("region", "r2"), trefAs("nation", "b")}}
	v2 := &spjg.Query{Tables: []spjg.TableRef{
		trefAs("region", "x"), trefAs("nation", "p"), trefAs("region", "y"), trefAs("nation", "q"), trefAs("nation", "r")}}
	want := [][]int{
		{0, 1, 2, 3}, {2, 1, 0, 3}, // nations (p, q), regions (x, y) then (y, x)
		{0, 1, 2, 4}, {2, 1, 0, 4}, // nations (p, r)
		{0, 3, 2, 1}, {2, 3, 0, 1}, // nations (q, p)
	}
	got := allMappings(q2, v2, 6)
	if len(got) != len(want) {
		t.Fatalf("%d mappings, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("mapping %d = %v, want %v", i, got[i], want[i])
		}
	}
}
