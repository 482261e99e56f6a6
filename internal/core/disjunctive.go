package core

import (
	"matview/internal/eqclass"
	"matview/internal/expr"
	"matview/internal/ranges"
)

// This file implements the disjunctive-range extension of §3.1.2 ("this
// range coverage algorithm can be extended to support disjunctions (OR) of
// range predicates"; the paper's prototype does not implement it). A residual
// conjunct that is a disjunction of range predicates over a single column
// equivalence class — (A < 5 OR A > 10), (A = 1 OR B = 7) with A ≡ B — is
// interpreted as an interval set on that class instead of being matched
// textually. Subsumption becomes interval-set containment; the compensating
// predicate is the query's own disjunction re-routed to a view output column.

// orRanges is a residual conjunct whose every disjunct is a range predicate:
// the part of the interpretation that depends on the conjunct alone. Whether
// the disjuncts' columns share one equivalence class depends on the classes
// it is read under (a view's conjunct is read under the query's).
type orRanges struct {
	pu   int                // index of the conjunct in the residual list
	cols []expr.ColRef      // the column of each disjunct
	set  ranges.IntervalSet // the union of the disjunct intervals
}

// scanOrRanges picks the disjunctions of range predicates out of a residual
// list. A single range predicate never appears here: Classify routes those
// to PR before the residual list is built.
func scanOrRanges(pu []expr.Expr) []orRanges {
	var out []orRanges
next:
	for i, c := range pu {
		or, ok := c.(expr.Or)
		if !ok {
			continue
		}
		o := orRanges{pu: i}
		for _, d := range or.Args {
			kind, _, rc := expr.Classify(d)
			if kind != expr.KindRange {
				continue next
			}
			iv, ok := ranges.Universal().Apply(rc.Op, rc.Val)
			if !ok {
				continue next
			}
			o.cols = append(o.cols, rc.Col)
			o.set = o.set.Add(iv)
		}
		out = append(out, o)
	}
	return out
}

// disjunctions is one side's disjunctive range structure under a given set
// of equivalence classes.
type disjunctions struct {
	entries []classDisjunction
}

// classDisjunction collects the OR conjuncts over one class.
type classDisjunction struct {
	rep int32 // class representative
	// set is the intersection of the conjuncts' interval sets.
	set ranges.IntervalSet
	// conjuncts indexes the residual list, for excluding the conjuncts from
	// shallow residual matching and for building compensating predicates.
	conjuncts []int
}

// scan adds the OR-of-range conjuncts whose columns all fall in one class of
// ec; off maps a column's table instance to the id of its column 0 in ec's
// space, and base is the position of the conjuncts' residual list within the
// list the entries index.
func (d *disjunctions) scan(ors []orRanges, ec *eqclass.Classes, off []int32, base int) {
next:
	for _, o := range ors {
		rep := ec.FindID(off[o.cols[0].Tab] + int32(o.cols[0].Col))
		for _, c := range o.cols[1:] {
			if ec.FindID(off[c.Tab]+int32(c.Col)) != rep {
				continue next
			}
		}
		if e := d.forClass(rep); e != nil {
			e.set = e.set.IntersectSet(o.set)
			e.conjuncts = append(e.conjuncts, base+o.pu)
		} else {
			d.entries = append(d.entries, classDisjunction{rep: rep, set: o.set, conjuncts: []int{base + o.pu}})
		}
	}
}

// forClass returns the entry of the class with the given representative.
func (d *disjunctions) forClass(rep int32) *classDisjunction {
	for i := range d.entries {
		if d.entries[i].rep == rep {
			return &d.entries[i]
		}
	}
	return nil
}

// consumed reports whether residual conjunct i was interpreted as a range and
// must be excluded from shallow residual matching.
func (d *disjunctions) consumed(i int) bool {
	for _, e := range d.entries {
		for _, j := range e.conjuncts {
			if j == i {
				return true
			}
		}
	}
	return false
}
