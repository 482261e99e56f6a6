package core

import (
	"slices"
	"strconv"

	"matview/internal/eqclass"
	"matview/internal/expr"
	"matview/internal/ranges"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
)

// Match decides whether the context's query can be computed from the view
// and, if so, returns the substitute expression; it returns nil otherwise.
// When the same base table occurs several times, every table-instance
// alignment is tried (up to the configured cap) and the first one that
// matches wins.
func (qc *QueryContext) Match(v *View) *Substitute {
	// Requirement 3 of §3.3 in contrapositive: a view with aggregation can
	// never produce the rows of a non-aggregate query (duplicates have been
	// collapsed), and a scalar aggregate (no group-by) over an aggregation
	// view would return zero rows instead of one when the view is empty, so
	// both are rejected outright.
	d := v.derived
	if d.isAgg && (!qc.isAgg || len(qc.groupBy) == 0) {
		return nil
	}
	if len(qc.tabs) > len(v.Def.Tables) {
		return nil
	}
	s := qc.m.scratch.Get().(*matchState)
	s.qc, s.v, s.d = qc, v, d
	s.al.mapping = append(s.al.mapping[:0], make([]int, len(qc.tables))...)
	s.al.taken = append(s.al.taken[:0], make([]bool, len(v.Def.Tables))...)
	s.al.tried = 0
	// With a repeated table on either side several alignments exist; they are
	// tried table name by table name so the winner does not depend on how
	// either FROM list happens to be ordered.
	order := qc.tabs
	if qc.dupTables || d.dupTables {
		order = qc.tablesByName()
	}
	var sub *Substitute
	s.al.each(qc.tables, v.Def.Tables, order, 0, qc.m.opts.MaxInstanceMappings, func() bool {
		sub = s.matchMapped()
		return sub != nil
	})
	// Do not keep the query or the view alive from the pool.
	s.qc, s.v, s.d = nil, nil, nil
	clear(s.qres)
	clear(s.comp)
	qc.m.scratch.Put(s)
	return sub
}

// matchState is the working state of one Match call, pooled by the Matcher.
// Everything in it is keyed by the view's column ids.
type matchState struct {
	qc *QueryContext
	v  *View
	d  *viewDerived

	al      alignment
	inverse []int   // view table instance → query table instance, -1 for an extra table
	qoff    []int32 // query table instance (of the expression) → view id of its column 0
	extra   []bool  // per view table instance
	el      elimination
	// order caches orderPreserved for the current mapping: 0 unknown, 1 yes,
	// 2 no.
	order int8

	// qec holds the query's classes carried into the view's column space and
	// extended with the view's extra tables and their join conditions (§3.2).
	qec eqclass.Classes
	// qres is the query's residual list as this view sees it.
	qres []queryResidual
	used []bool
	// qr and vr are the query's and the view's class ranges keyed by qec
	// representative; qdis and vdis the same for the disjunctive ranges.
	qr, vr     []classRange
	qdis, vdis disjunctions
	reps       []int32
	members    []int32

	// ordByRoot maps a qec representative to the first usable view output
	// ordinal of its class; filled on first use per mapping.
	ordByRoot []int32
	backjoins []Backjoin
	byTab     []int // view table instance → 1 + index into backjoins, 0 when not backjoined
	comp      []expr.Expr
}

type classRange struct {
	rep int32
	rng ranges.Range
}

// queryResidual is one residual conjunct on the query side of the residual
// subsumption test: its fingerprint, and the table that translates the
// fingerprint's columns to view ids (column c of table instance t is
// off[t]+c).
type queryResidual struct {
	fp  *expr.Fingerprint
	off []int32
	// pu is the conjunct in the query's space, for building the compensating
	// predicate; nil for a conjunct that comes from a check constraint of one
	// of the view's extra tables.
	pu expr.Expr
}

// vid translates a column of the query to its id in the view's space.
func (s *matchState) vid(r expr.ColRef) int32 { return s.qoff[r.Tab] + int32(r.Col) }

// toViewRef and toQueryRef translate column references between the query's
// table instances and the view's.
func (s *matchState) toViewRef(r expr.ColRef) expr.ColRef {
	return expr.ColRef{Tab: s.al.mapping[r.Tab], Col: r.Col}
}

func (s *matchState) toQueryRef(r expr.ColRef) expr.ColRef {
	return expr.ColRef{Tab: s.inverse[r.Tab], Col: r.Col}
}

// orderPreserved reports whether the instance mapping keeps the relative
// order in which Normalize ranks table instances (the lexical order of their
// decimal indexes, see expr.Normalize). If it does, normalizing an expression
// commutes with renumbering its instances, so the context's fingerprints are
// the ones the view-space query would have.
func (s *matchState) orderPreserved() bool {
	if s.order == 0 {
		s.order = 1
		for k, i := range s.qc.tabs {
			for _, j := range s.qc.tabs[k+1:] {
				if tabLess(i, j) != tabLess(s.al.mapping[i], s.al.mapping[j]) {
					s.order = 2
				}
			}
		}
	}
	return s.order == 1
}

func tabLess(a, b int) bool {
	if a < 10 && b < 10 {
		return a < b
	}
	return strconv.Itoa(a) < strconv.Itoa(b)
}

// fingerprint returns the shallow-matching form of query expression e as the
// view sees it, with the table translating its columns to view ids. cached is
// the context's fingerprint of e, nil for an expression the context does not
// keep one for.
func (s *matchState) fingerprint(e expr.Expr, cached *expr.Fingerprint) (*expr.Fingerprint, []int32) {
	if cached != nil && (!spansTables(cached.Cols) || s.orderPreserved()) {
		return cached, s.qoff
	}
	fp := expr.NewFingerprint(expr.Normalize(expr.MapColumns(e, s.toViewRef)))
	return &fp, s.v.A.EC.Offsets()
}

// sameCols reports whether the view fingerprint columns are position-wise
// equivalent, under the extended query classes, to the query-side columns
// translated through off.
func (s *matchState) sameCols(vcols, qcols []expr.ColRef, off []int32) bool {
	voff := s.v.A.EC.Offsets()
	for k, vc := range vcols {
		qc := qcols[k]
		if s.qec.FindID(voff[vc.Tab]+int32(vc.Col)) != s.qec.FindID(off[qc.Tab]+int32(qc.Col)) {
			return false
		}
	}
	return true
}

// matchFP returns the index of the first view fingerprint that matches the
// query-side fingerprint under shallow matching (equal text, position-wise
// equivalent columns), or -1.
func (s *matchState) matchFP(vfps []expr.Fingerprint, fp *expr.Fingerprint, off []int32) int {
	for i := range vfps {
		if vfps[i].Text == fp.Text && len(vfps[i].Cols) == len(fp.Cols) && s.sameCols(vfps[i].Cols, fp.Cols, off) {
			return i
		}
	}
	return -1
}

// addRange intersects rg into the range kept for the class rep; ok is false
// when the bounds are incomparable.
func addRange(list []classRange, rep int32, rg ranges.Range) ([]classRange, bool) {
	for i := range list {
		if list[i].rep == rep {
			merged, ok := list[i].rng.Intersect(rg)
			list[i].rng = merged
			return list, ok
		}
	}
	return append(list, classRange{rep, rg}), true
}

func rangeOf(list []classRange, rep int32) ranges.Range {
	for i := range list {
		if list[i].rep == rep {
			return list[i].rng
		}
	}
	return ranges.Universal()
}

// matchMapped runs the full §3 test pipeline for the table-instance alignment
// in s.al.mapping.
func (s *matchState) matchMapped() *Substitute {
	qc, v, d := s.qc, s.v, s.d
	m, a := qc.m, qc.a
	voff := v.A.EC.Offsets()
	nv := len(v.Def.Tables)

	s.order = 0
	s.ordByRoot = s.ordByRoot[:0]
	s.backjoins = s.backjoins[:0]
	s.byTab = append(s.byTab[:0], make([]int, nv)...)
	s.comp = s.comp[:0]
	s.inverse = s.inverse[:0]
	for i := 0; i < nv; i++ {
		s.inverse = append(s.inverse, -1)
	}
	s.qoff = append(s.qoff[:0], make([]int32, len(qc.tables))...)
	for _, qt := range qc.tabs {
		vt := s.al.mapping[qt]
		s.inverse[vt] = qt
		s.qoff[qt] = voff[vt]
	}

	// --- §3.2: eliminate the view's extra tables through cardinality-
	// preserving joins.
	s.el.deleted = s.el.deleted[:0]
	hasExtras := nv > len(qc.tabs)
	if hasExtras {
		s.extra = s.extra[:0]
		for _, qt := range s.inverse {
			s.extra = append(s.extra, qt < 0)
		}
		var usable func(*fkEdge) bool
		if m.opts.NullRejectingFKRelaxation {
			usable = func(e *fkEdge) bool { return s.nullsRejected(e) }
		}
		if !s.el.eliminate(d.fkEdges, s.extra, usable) {
			return nil
		}
	}

	// Carry the query's classes into the view's space, then conceptually add
	// the extra tables and their foreign-key join conditions to the query:
	// every extra-table column starts in a trivial class, and the join
	// conditions of the deleted edges merge classes (§3.2). The unions are
	// replayed in predicate order so class representatives — which order the
	// compensating predicates — do not depend on the alignment.
	s.qec.ResetLike(v.A.EC)
	for _, eq := range a.PE {
		s.qec.UnionID(s.vid(eq.A), s.vid(eq.B))
	}
	if hasExtras {
		// An extra table brings its check constraints with it: the view's
		// analysis folded them in, so the query side has to as well.
		for ti, ck := range d.checks {
			if ck != nil && s.extra[ti] {
				for _, eq := range ck.a.PE {
					s.qec.UnionID(voff[ti]+int32(eq.A.Col), voff[ti]+int32(eq.B.Col))
				}
			}
		}
		for _, ei := range s.el.deleted {
			e := &d.fkEdges[ei]
			for k := range e.FK.Columns {
				s.qec.UnionID(voff[e.From]+int32(e.FK.Columns[k]), voff[e.To]+int32(e.FK.RefColumns[k]))
			}
		}
	}

	// The query's residual list and disjunctive ranges as this view sees
	// them. The disjunctive ranges extension interprets OR-of-range residuals
	// as interval sets keyed by query class (sound even across view classes:
	// the query's needed rows have all class members equal, and on those rows
	// the disjunction is exactly a set membership test).
	s.qr = s.qr[:0]
	s.qres = s.qres[:0]
	for j := range a.PU {
		r := queryResidual{fp: &a.ResidualFPs[j], off: s.qoff, pu: a.PU[j]}
		if spansTables(a.ResidualFPs[j].Cols) && !s.orderPreserved() {
			n := expr.Normalize(expr.MapColumns(a.PU[j], s.toViewRef))
			fp := expr.NewFingerprint(n)
			r = queryResidual{fp: &fp, off: voff, pu: expr.MapColumns(n, s.toQueryRef)}
		}
		s.qres = append(s.qres, r)
	}
	s.qdis.entries = s.qdis.entries[:0]
	s.vdis.entries = s.vdis.entries[:0]
	if m.opts.DisjunctiveRanges {
		s.vdis.scan(d.ors, &s.qec, voff, 0)
		s.qdis.scan(qc.ors, &s.qec, s.qoff, 0)
	}
	if hasExtras {
		for ti, ck := range d.checks {
			if ck == nil || !s.extra[ti] {
				continue
			}
			off := voff[ti : ti+1]
			for _, cr := range ck.a.Ranges {
				var ok bool
				if s.qr, ok = addRange(s.qr, s.qec.FindID(off[0]+cr.Rep), cr.Range); !ok {
					return nil
				}
			}
			if m.opts.DisjunctiveRanges {
				s.qdis.scan(ck.ors, &s.qec, off, len(s.qres))
			}
			for j := range ck.a.PU {
				s.qres = append(s.qres, queryResidual{fp: &ck.a.ResidualFPs[j], off: off})
			}
		}
	}

	// Re-key the query's class ranges by the extended classes; merged classes
	// intersect their ranges.
	for _, cr := range a.Ranges {
		var ok bool
		if s.qr, ok = addRange(s.qr, s.qec.FindID(s.vid(a.EC.Ref(cr.Rep))), cr.Range); !ok {
			return nil
		}
	}

	// --- Equijoin subsumption test (§3.1.2): every nontrivial view
	// equivalence class must be a subset of some query equivalence class.
	if !v.A.EC.SubsetOf(&s.qec) {
		return nil
	}

	// --- Compensating column-equality predicates: whenever several view
	// equivalence classes map to the same query class, equate one (output-
	// mappable) column from each (§3.1.2, §3.1.3 point 1). The columns are
	// routed to view outputs through the view's own classes.
	for _, cls := range s.qec.NonTrivialIDs() {
		s.reps, s.members = s.reps[:0], s.members[:0]
		for _, mcol := range cls {
			if vrep := v.A.EC.FindID(mcol); !slices.Contains(s.reps, vrep) {
				s.reps = append(s.reps, vrep)
				s.members = append(s.members, mcol)
			}
		}
		if len(s.members) < 2 {
			continue
		}
		for i := range s.members {
			if d.viewOrd[s.members[i]] < 0 {
				return nil
			}
			if i > 0 {
				s.comp = append(s.comp, expr.Eq(
					d.outExprs[d.viewOrd[s.members[i-1]]],
					d.outExprs[d.viewOrd[s.members[i]]]))
			}
		}
	}

	// --- Range subsumption test (§3.1.2): fold the view's class ranges into
	// query-class space, require every view range to contain the query range,
	// and emit compensating bounds where they differ (§3.1.3 point 2).
	s.vr = s.vr[:0]
	for _, cr := range v.A.Ranges {
		var ok bool
		if s.vr, ok = addRange(s.vr, s.qec.FindID(cr.Rep), cr.Range); !ok {
			return nil
		}
	}
	s.reps = s.reps[:0]
	for _, cr := range s.vr {
		s.reps = append(s.reps, cr.rep)
	}
	for _, cr := range s.qr {
		s.reps = append(s.reps, cr.rep)
	}
	for _, e := range s.vdis.entries {
		s.reps = append(s.reps, e.rep)
	}
	for _, e := range s.qdis.entries {
		s.reps = append(s.reps, e.rep)
	}
	// Deterministic iteration keeps substitutes stable across runs.
	slices.Sort(s.reps)
	s.reps = slices.Compact(s.reps)
	for _, rep := range s.reps {
		vr, qr := rangeOf(s.vr, rep), rangeOf(s.qr, rep)
		vOr, qOr := s.vdis.forClass(rep), s.qdis.forClass(rep)
		if vOr == nil && qOr == nil {
			contains, cok := vr.Contains(qr)
			if !cok || !contains || !s.compensateRange(rep, vr, qr) {
				return nil
			}
			continue
		}

		// Interval-set path: containment of the combined (plain ∩
		// disjunctive) sets, with the query's own disjunctions re-applied
		// only when the plain-bound compensation does not already reduce the
		// view's set to the query's.
		vSet := ranges.NewIntervalSet(vr)
		if vOr != nil {
			vSet = vSet.IntersectSet(vOr.set)
		}
		qSet := ranges.NewIntervalSet(qr)
		if qOr != nil {
			qSet = qSet.IntersectSet(qOr.set)
		}
		if !vSet.ContainsSet(qSet) || !s.compensateRange(rep, vr, qr) {
			return nil
		}
		afterPlain := vSet.IntersectSet(ranges.NewIntervalSet(qr))
		if qOr != nil && !qSet.ContainsSet(afterPlain) {
			for _, j := range qOr.conjuncts {
				if s.qres[j].pu == nil {
					continue // an extra table's check constraint, which the view enforces itself
				}
				rw, ok := s.compensateResidual(j)
				if !ok {
					return nil
				}
				s.comp = append(s.comp, rw)
			}
		}
	}

	// --- Residual subsumption test (§3.1.2): every view residual conjunct
	// must match a query residual conjunct under the shallow matching
	// algorithm (equal text, position-wise query-equivalent columns). Query
	// residuals left unmatched become compensating predicates (§3.1.3 point
	// 3) and must be computable from simple view output columns.
	s.used = s.used[:0]
	for j := range s.qres {
		// Conjuncts absorbed by the disjunctive-range test are spoken for.
		s.used = append(s.used, s.qdis.consumed(j))
	}
	for i := range v.A.ResidualFPs {
		if s.vdis.consumed(i) {
			continue
		}
		vfp := &v.A.ResidualFPs[i]
		found := -1
		for j, r := range s.qres {
			if !s.used[j] && r.fp.Text == vfp.Text && len(r.fp.Cols) == len(vfp.Cols) &&
				s.sameCols(vfp.Cols, r.fp.Cols, r.off) {
				found = j
				break
			}
		}
		if found < 0 {
			return nil
		}
		s.used[found] = true
	}
	for j := range s.qres {
		if s.used[j] {
			continue
		}
		rewritten, ok := s.compensateResidual(j)
		if !ok {
			return nil
		}
		s.comp = append(s.comp, rewritten)
	}

	sub := &Substitute{View: v}
	if len(s.comp) > 0 {
		// No compensating predicate is itself a conjunction, so this is
		// expr.NewAnd without the second copy.
		sub.comp = slices.Clone(s.comp)
		sub.Filter = sub.comp[0]
		if len(sub.comp) > 1 {
			sub.Filter = expr.And{Args: sub.comp}
		}
	}

	// --- Output expressions (§3.1.4) and aggregation rollup (§3.3).
	sub.Outputs = make([]SubstituteOutput, 0, len(qc.outputs))
	if d.isAgg {
		if !s.finishAggOverAgg(sub) {
			return nil
		}
	} else if !s.finishOverSPJ(sub) {
		return nil
	}
	if len(s.backjoins) > 0 {
		sub.Backjoins = slices.Clone(s.backjoins)
	}
	return sub
}

// compensateRange emits the bounds that narrow the view's range vr of the
// class rep to the query's range qr; it reports false when a bound is needed
// and the class has no usable column.
func (s *matchState) compensateRange(rep int32, vr, qr ranges.Range) bool {
	comp := ranges.CompensationFor(vr, qr)
	if !comp.NeedLo && !comp.NeedHi {
		return true
	}
	ref, ok := s.mapCol(rep)
	if !ok {
		return false
	}
	col := s.colExpr(ref)
	if comp.NeedLo && comp.NeedHi && comp.LoOp == expr.GE && comp.HiOp == expr.LE &&
		sqlvalue.Equal(comp.LoVal, comp.HiVal) {
		s.comp = append(s.comp, expr.Eq(col, expr.C(comp.LoVal)))
		return true
	}
	if comp.NeedLo {
		s.comp = append(s.comp, expr.NewCmp(comp.LoOp, col, expr.C(comp.LoVal)))
	}
	if comp.NeedHi {
		s.comp = append(s.comp, expr.NewCmp(comp.HiOp, col, expr.C(comp.HiVal)))
	}
	return true
}

// compensateResidual rewrites the query's residual conjunct j over the view's
// outputs.
func (s *matchState) compensateResidual(j int) (expr.Expr, bool) {
	if s.qres[j].pu == nil {
		return nil, false
	}
	return s.computeScalar(s.qres[j].pu, nil)
}

// nullsRejected reports whether the query carries, for every nullable
// foreign-key column of the edge, a null-rejecting predicate on the column's
// equivalence class beyond the equijoin: a constrained range, or an IS NOT
// NULL residual (end of §3.2).
func (s *matchState) nullsRejected(e *fkEdge) bool {
	a := s.qc.a
next:
	for _, c := range e.nullable {
		if s.inverse[c.Tab] < 0 {
			return false
		}
		qc := s.toQueryRef(c)
		if a.RangeFor(qc).Constrained() {
			continue
		}
		for _, pu := range a.PU {
			if isn, ok := pu.(expr.IsNull); ok && isn.Negate {
				if col, ok := isn.E.(expr.Column); ok && a.EC.Same(col.Ref, qc) {
					continue next
				}
			}
		}
		return false
	}
	return true
}

// finishOverSPJ builds the outputs of a substitute over an SPJ view: the
// query's scalar outputs rewritten over view output columns and, for an
// aggregation query, a compensating group-by over the view's rows with the
// query's aggregates computed from view output columns.
func (s *matchState) finishOverSPJ(sub *Substitute) bool {
	sub.Regroup = s.qc.isAgg
	for gi, g := range s.qc.groupBy {
		ge, ok := s.computeScalar(g, s.qc.GroupFP(gi))
		if !ok {
			return false
		}
		sub.GroupBy = append(sub.GroupBy, ge)
	}
	for i, o := range s.qc.outputs {
		if o.Agg == nil {
			se, ok := s.computeScalar(o.Expr, s.qc.OutputFP(i))
			if !ok {
				return false
			}
			sub.Outputs = append(sub.Outputs, SubstituteOutput{Name: o.Name, Expr: se})
			continue
		}
		agg := &spjg.Aggregate{Kind: o.Agg.Kind}
		if o.Agg.Arg != nil {
			arg, ok := s.computeScalar(o.Agg.Arg, s.qc.OutputFP(i))
			if !ok {
				return false
			}
			agg.Arg = arg
		}
		sub.Outputs = append(sub.Outputs, SubstituteOutput{Name: o.Name, Agg: agg})
	}
	return true
}

// finishAggOverAgg builds the substitute for an aggregation query over an
// aggregation view (§3.3): the query's group-by list must be a subset of the
// view's (each expression matching under shallow matching with query
// equivalences); a strict subset requires a compensating group-by, in which
// case COUNT(*) becomes SUM(count_big), SUM(E) becomes SUM over the view's
// matching sum column, and AVG(E) becomes SUM(sum_E)/SUM(count_big).
func (s *matchState) finishAggOverAgg(sub *Substitute) bool {
	d, m := s.d, s.qc.m
	cntOrd := d.cntOrd
	if cntOrd < 0 {
		return false // not a legal aggregation view; defensive
	}

	// s.used doubles as the set of view grouping outputs the query groups on.
	s.used = append(s.used[:0], make([]bool, len(d.groupOrds))...)
	needRegroup := false
	var groupKeys []expr.Expr
	for gi, g := range s.qc.groupBy {
		fp, off := s.fingerprint(g, s.qc.GroupFP(gi))
		if k := s.matchFP(d.groupFPs, fp, off); k >= 0 {
			s.used[k] = true
			groupKeys = append(groupKeys, d.outExprs[d.groupOrds[k]])
			continue
		}
		if !m.opts.GroupingByExpression {
			return false
		}
		// Extension: a grouping expression computable from the view's
		// grouping output columns is acceptable — the view's grouping
		// expressions then functionally determine the query's, so the
		// query's groups are unions of view groups (§3.3, [16]).
		ge, ok := s.computeScalar(g, s.qc.GroupFP(gi))
		if !ok {
			return false
		}
		needRegroup = true
		groupKeys = append(groupKeys, ge)
	}
	for _, matched := range s.used {
		needRegroup = needRegroup || !matched
	}

	// rollup wraps a view aggregate column in SUM when the view's groups have
	// to be merged.
	rollup := func(name string, ord int) SubstituteOutput {
		if needRegroup {
			return SubstituteOutput{Name: name, Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: d.outExprs[ord]}}
		}
		return SubstituteOutput{Name: name, Expr: d.outExprs[ord]}
	}
	for i, o := range s.qc.outputs {
		if o.Agg == nil {
			se, ok := s.computeScalar(o.Expr, s.qc.OutputFP(i))
			if !ok {
				return false
			}
			sub.Outputs = append(sub.Outputs, SubstituteOutput{Name: o.Name, Expr: se})
			continue
		}
		if o.Agg.Kind == spjg.AggCountStar {
			sub.Outputs = append(sub.Outputs, rollup(o.Name, cntOrd))
			continue
		}
		if o.Agg.Kind != spjg.AggSum && o.Agg.Kind != spjg.AggAvg {
			return false
		}
		fp, off := s.fingerprint(o.Agg.Arg, s.qc.OutputFP(i))
		k := s.matchFP(d.sumFPs, fp, off)
		if k < 0 {
			return false
		}
		out := rollup(o.Name, d.sumOrds[k])
		if o.Agg.Kind == spjg.AggAvg {
			if needRegroup {
				out.DivBy = &spjg.Aggregate{Kind: spjg.AggSum, Arg: d.outExprs[cntOrd]}
			} else {
				out.Expr = expr.NewArith(expr.Div, out.Expr, d.outExprs[cntOrd])
			}
		}
		sub.Outputs = append(sub.Outputs, out)
	}
	sub.Regroup = needRegroup
	if needRegroup {
		sub.GroupBy = groupKeys
	}
	return true
}

// computeScalar rewrites a scalar query expression over the view's output
// columns (§3.1.4): constants copy through; simple columns map through the
// query equivalence classes; other expressions first look for an exact
// matching view output expression (shallow matching) and otherwise are
// recomputed from simple output columns. cached is the context's fingerprint
// of e, if it keeps one.
func (s *matchState) computeScalar(e expr.Expr, cached *expr.Fingerprint) (expr.Expr, bool) {
	if c, ok := expr.ConstOf(e); ok {
		return expr.C(c), true
	}
	if col, ok := e.(expr.Column); ok {
		ref, ok := s.mapCol(s.vid(col.Ref))
		if !ok {
			return nil, false
		}
		return s.colExpr(ref), true
	}
	if i := s.matchOutputExpr(e, cached); i >= 0 {
		return s.d.outExprs[i], true
	}
	if !s.qc.m.opts.SubexpressionMatching {
		return s.rewriteOverOutputs(e)
	}
	// §7 extension: compute the expression piecewise, replacing any
	// subexpression that exactly matches a view output expression.
	ok := true
	out := expr.MapChildren(e, func(sub expr.Expr) expr.Expr {
		if !ok {
			return sub
		}
		var rw expr.Expr
		rw, ok = s.computeScalar(sub, nil)
		return rw
	})
	if !ok {
		return nil, false
	}
	return out, true
}

// matchOutputExpr returns the ordinal of a complex view output expression
// that exactly matches e under shallow matching (equal normalized fingerprint
// text, position-wise equivalent columns), or -1. Only grouping expressions
// qualify on aggregation views, which holds by construction since every
// scalar output of an aggregation view is a grouping expression.
func (s *matchState) matchOutputExpr(e expr.Expr, cached *expr.Fingerprint) int {
	if len(s.d.exprFPs) == 0 {
		return -1
	}
	fp, off := s.fingerprint(e, cached)
	if k := s.matchFP(s.d.exprFPs, fp, off); k >= 0 {
		return s.d.exprOrds[k]
	}
	return -1
}

// rewriteOverOutputs maps every column reference in e to an available column
// (view output or backjoined base column); ok is false if any reference
// cannot be mapped.
func (s *matchState) rewriteOverOutputs(e expr.Expr) (expr.Expr, bool) {
	ok := true
	out := expr.RewriteColumns(e, func(r expr.ColRef) expr.Expr {
		ref, mok := s.mapCol(s.vid(r))
		if !mok {
			ok = false
			return expr.ColE(r)
		}
		return s.colExpr(ref)
	})
	if !ok {
		return nil, false
	}
	return out, true
}
