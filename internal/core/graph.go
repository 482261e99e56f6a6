package core

import (
	"matview/internal/catalog"
	"matview/internal/eqclass"
	"matview/internal/expr"
	"matview/internal/spjg"
)

// fkEdge is one edge of the foreign-key join graph (§3.2): the view joins
// table instance From to table instance To through the foreign key FK of
// From's base table, and the join satisfies the five requirements — equijoin,
// all columns, non-null (or relaxed), foreign key, unique key. Such a join is
// cardinality preserving: every row of From joins exactly one row of To.
type fkEdge struct {
	From, To int
	FK       *catalog.ForeignKey
	// nullable lists the foreign-key columns of From that are not declared
	// NOT NULL. The edge is cardinality preserving only for a query that
	// rejects nulls on each of them (end of §3.2); it is empty for an edge
	// that holds unconditionally.
	nullable []expr.ColRef
}

// buildFKGraph constructs the foreign-key join graph of a view definition.
// Equijoin conditions are taken from the equivalence classes so transitive
// equalities are captured ("to capture transitive equijoin conditions
// correctly we must use the equivalence classes when adding edges"). Edges
// over nullable foreign-key columns are included, marked conditional, only
// under the null-rejecting relaxation.
func buildFKGraph(def *spjg.Query, ec *eqclass.Classes, relaxNullable bool) []fkEdge {
	var edges []fkEdge
	for from := range def.Tables {
		ft := def.Tables[from].Table
		for fi := range ft.Foreign {
			fk := &ft.Foreign[fi]
		targets:
			for to := range def.Tables {
				if to == from || def.Tables[to].Table.Name != fk.RefTable {
					continue
				}
				e := fkEdge{From: from, To: to, FK: fk}
				for k := range fk.Columns {
					fcol := expr.ColRef{Tab: from, Col: fk.Columns[k]}
					rcol := expr.ColRef{Tab: to, Col: fk.RefColumns[k]}
					if !ec.Same(fcol, rcol) {
						continue targets
					}
					if !ft.Columns[fk.Columns[k]].NotNull {
						if !relaxNullable {
							continue targets
						}
						e.nullable = append(e.nullable, fcol)
					}
				}
				edges = append(edges, e)
			}
		}
	}
	return edges
}

// elimination is the working state of eliminate, reusable across runs.
type elimination struct {
	dead     []bool // per node
	edgeDead []bool // per edge
	deleted  []int  // indexes of the edges consumed, in deletion order
}

// eliminate runs the node-deletion process of §3.2 on the graph: repeatedly
// delete a candidate node that has no outgoing edges and exactly one incoming
// edge (logically performing that cardinality-preserving join), until no more
// candidates can be deleted. It leaves the edges consumed by deletions in
// el.deleted and reports whether every candidate was eliminated.
//
// candidate marks the nodes that may be deleted: the view's extra tables
// during matching, or every unconstrained node when computing the hub. An
// edge for which usable returns false does not exist for this run.
func (el *elimination) eliminate(edges []fkEdge, candidate []bool, usable func(*fkEdge) bool) bool {
	el.dead = append(el.dead[:0], make([]bool, len(candidate))...)
	el.edgeDead = append(el.edgeDead[:0], make([]bool, len(edges))...)
	el.deleted = el.deleted[:0]
	remaining := 0
	for _, c := range candidate {
		if c {
			remaining++
		}
	}
	if usable != nil {
		for i := range edges {
			el.edgeDead[i] = !usable(&edges[i])
		}
	}
	for progress := true; progress && remaining > 0; {
		progress = false
		for n := range candidate {
			if el.dead[n] || !candidate[n] {
				continue
			}
			out, in, inCount := 0, -1, 0
			for i, e := range edges {
				if el.edgeDead[i] || el.dead[e.From] || el.dead[e.To] {
					continue
				}
				if e.From == n {
					out++
				}
				if e.To == n {
					in = i
					inCount++
				}
			}
			if out == 0 && inCount == 1 {
				el.dead[n] = true
				el.edgeDead[in] = true
				el.deleted = append(el.deleted, in)
				remaining--
				progress = true
			}
		}
	}
	return remaining == 0
}

// computeHub runs the elimination on the view itself until no further tables
// can be removed; the remaining set is the view's hub (§4.2.2). The
// refinement described there is applied: a table stays in the hub when one of
// its columns in a trivial equivalence class is referenced by a range or
// residual predicate — in that case the join is not guaranteed cardinality
// preserving for the view's row set, and any query matching the predicate
// must reference the table anyway.
//
// When the null-rejecting relaxation is enabled, nullable foreign-key edges
// participate (a future query may supply the null-rejecting predicate), which
// can only shrink the hub — keeping the hub condition conservative.
func (m *Matcher) computeHub(v *View) []int {
	candidate := make([]bool, len(v.Def.Tables))
	for i := range candidate {
		candidate[i] = true
	}
	mark := func(c expr.ColRef) {
		if v.A.EC.IsTrivial(c) {
			candidate[c.Tab] = false
		}
	}
	for _, rc := range v.A.PR {
		mark(rc.Col)
	}
	for _, pu := range v.A.PU {
		for _, c := range expr.Columns(pu) {
			mark(c)
		}
	}

	var el elimination
	el.eliminate(v.derived.fkEdges, candidate, nil)
	var hub []int
	for i := range v.Def.Tables {
		if !el.dead[i] {
			hub = append(hub, i)
		}
	}
	return hub
}
