package core

import (
	"testing"

	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/tpch"
)

// graphFor builds the FK join graph of a definition with its own classes.
func graphFor(def *spjg.Query) []fkEdge {
	a := spjg.Analyze(def, false)
	return buildFKGraph(def, a.EC, false)
}

func TestBuildFKGraphDirectJoin(t *testing.T) {
	def := &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem"), tref("orders")},
		Where:   expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
		Outputs: []spjg.OutputColumn{{Expr: expr.Col(0, 0)}},
	}
	edges := graphFor(def)
	if len(edges) != 1 || edges[0].From != 0 || edges[0].To != 1 {
		t.Fatalf("edges = %+v", edges)
	}
}

func TestBuildFKGraphTransitiveEquality(t *testing.T) {
	// The equijoin is expressed transitively: l_orderkey = o_orderkey is
	// implied by l_orderkey = X and X = o_orderkey where X is a third column
	// — here via two predicates through the same class. §3.2: "to capture
	// transitive equijoin conditions correctly we must use the equivalence
	// classes".
	def := &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("orders"), tref("lineitem")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(2, tpch.LOrderkey)),
			expr.Eq(expr.Col(2, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
		),
		Outputs: []spjg.OutputColumn{{Expr: expr.Col(0, 0)}},
	}
	edges := graphFor(def)
	// Both lineitem instances now have FK edges into orders.
	froms := map[int]bool{}
	for _, e := range edges {
		if e.To == 1 {
			froms[e.From] = true
		}
	}
	if !froms[0] || !froms[2] {
		t.Fatalf("transitive equivalence missed: %+v", edges)
	}
}

func TestBuildFKGraphNoEdgeWithoutEquality(t *testing.T) {
	def := &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem"), tref("orders")},
		Outputs: []spjg.OutputColumn{{Expr: expr.Col(0, 0)}},
	}
	if edges := graphFor(def); len(edges) != 0 {
		t.Fatalf("cartesian product produced edges: %+v", edges)
	}
}

// runEliminate eliminates the given candidate nodes and returns the consumed
// edges in deletion order.
func runEliminate(nodes int, edges []fkEdge, usable func(*fkEdge) bool, candidates ...int) ([]fkEdge, bool) {
	cand := make([]bool, nodes)
	for _, n := range candidates {
		cand[n] = true
	}
	var el elimination
	ok := el.eliminate(edges, cand, usable)
	var deleted []fkEdge
	for _, i := range el.deleted {
		deleted = append(deleted, edges[i])
	}
	return deleted, ok
}

func TestEliminateChain(t *testing.T) {
	// 0 → 1 → 2, eliminate {1, 2}.
	edges := []fkEdge{{From: 0, To: 1}, {From: 1, To: 2}}
	deleted, ok := runEliminate(3, edges, nil, 1, 2)
	if !ok || len(deleted) != 2 {
		t.Fatalf("deleted=%v ok=%v", deleted, ok)
	}
	// Order: 2 first (no outgoing), then 1.
	if deleted[0].To != 2 || deleted[1].To != 1 {
		t.Fatalf("deletion order = %+v", deleted)
	}
}

func TestEliminateBlockedByOutgoingEdge(t *testing.T) {
	// 0 → 1 → 2, try to eliminate only {1}: node 1 has an outgoing edge.
	edges := []fkEdge{{From: 0, To: 1}, {From: 1, To: 2}}
	if _, ok := runEliminate(3, edges, nil, 1); ok {
		t.Fatal("node with outgoing edge eliminated")
	}
}

func TestEliminateBlockedByTwoIncoming(t *testing.T) {
	// 0 → 2 and 1 → 2: two incoming edges, the paper requires exactly one.
	edges := []fkEdge{{From: 0, To: 2}, {From: 1, To: 2}}
	if _, ok := runEliminate(3, edges, nil, 2); ok {
		t.Fatal("node with two incoming edges eliminated")
	}
}

func TestEliminateIgnoresUnusableEdge(t *testing.T) {
	// The only edge into node 1 does not hold for this query.
	edges := []fkEdge{{From: 0, To: 1}}
	if _, ok := runEliminate(2, edges, func(*fkEdge) bool { return false }, 1); ok {
		t.Fatal("node eliminated through an unusable edge")
	}
	// With 0 → 2 unusable, node 2 has exactly one incoming edge left.
	edges = []fkEdge{{From: 0, To: 2}, {From: 1, To: 2}}
	if _, ok := runEliminate(3, edges, func(e *fkEdge) bool { return e.From == 1 }, 2); !ok {
		t.Fatal("unusable edge still counted as incoming")
	}
}

func TestEliminateCascade(t *testing.T) {
	// Star: 0 → 1, 0 → 2; both 1 and 2 deletable independently.
	edges := []fkEdge{{From: 0, To: 1}, {From: 0, To: 2}}
	deleted, ok := runEliminate(3, edges, nil, 1, 2)
	if !ok || len(deleted) != 2 {
		t.Fatalf("star elimination failed: %+v", deleted)
	}
}

func TestEliminateNothingToDo(t *testing.T) {
	deleted, ok := runEliminate(2, nil, nil)
	if !ok || len(deleted) != 0 {
		t.Fatal("empty candidate set must succeed trivially")
	}
}

func TestBuildFKGraphNullableColumns(t *testing.T) {
	// Manufacture a class equality over a nullable FK by using the catalog
	// from extratables_test.
	c := nullableFKCatalog(t)
	def := &spjg.Query{
		Tables:  []spjg.TableRef{{Table: c.Table("t")}, {Table: c.Table("s")}},
		Where:   expr.Eq(expr.Col(0, 1), expr.Col(1, 0)),
		Outputs: []spjg.OutputColumn{{Expr: expr.Col(0, 0)}},
	}
	a := spjg.Analyze(def, false)
	if edges := buildFKGraph(def, a.EC, false); len(edges) != 0 {
		t.Fatalf("nullable FK produced an edge without relaxation: %+v", edges)
	}
	relaxed := buildFKGraph(def, a.EC, true)
	if len(relaxed) != 1 || len(relaxed[0].nullable) != 1 {
		t.Fatalf("relaxation did not produce the conditional edge: %+v", relaxed)
	}
}

func TestBuildFKGraphCompositePartialEquality(t *testing.T) {
	// Only half of the composite (l_partkey, l_suppkey) → partsupp key is
	// equated: no edge.
	def := &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem"), tref("partsupp")},
		Where:   expr.Eq(expr.Col(0, tpch.LPartkey), expr.Col(1, tpch.PsPartkey)),
		Outputs: []spjg.OutputColumn{{Expr: expr.Col(0, 0)}},
	}
	for _, e := range graphFor(def) {
		if e.To == 1 && len(e.FK.Columns) == 2 {
			t.Fatalf("partial composite FK edge built: %+v", e)
		}
	}
}
