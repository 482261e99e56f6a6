package core

import "matview/internal/expr"

// ordinal maps a column of the view's space straight to a view output ordinal
// using the extended query equivalence classes, or -1.
func (s *matchState) ordinal(id int32) int {
	if len(s.ordByRoot) == 0 {
		for i := 0; i < s.qec.Len(); i++ {
			s.ordByRoot = append(s.ordByRoot, -1)
		}
		for k := len(s.d.colIDs) - 1; k >= 0; k-- { // descending, so the first output of a class wins
			s.ordByRoot[s.qec.FindID(s.d.colIDs[k])] = int32(s.d.colOrds[k])
		}
	}
	return int(s.ordByRoot[s.qec.FindID(id)])
}

// colExpr returns a column available to the substitute (see mapCol) as an
// expression; the view's own outputs are boxed once, at registration.
func (s *matchState) colExpr(r expr.ColRef) expr.Expr {
	if r.Tab == 0 {
		return s.d.outExprs[r.Col]
	}
	return expr.ColE(r)
}

// mapCol resolves a column of the view's space to a column available to the
// substitute: a view output (Tab 0) or, when the backjoin extension is
// enabled, a column of a base table re-attached through a unique-key equijoin
// (Tab 1+i). It creates the backjoin if necessary and allowed; ok is false
// when the column is unrecoverable.
func (s *matchState) mapCol(id int32) (expr.ColRef, bool) {
	if ord := s.ordinal(id); ord >= 0 {
		return expr.ColRef{Tab: 0, Col: ord}, true
	}
	if !s.qc.m.opts.BackjoinSubstitutes {
		return expr.ColRef{}, false
	}
	c := s.v.A.EC.Ref(id)
	if idx := s.byTab[c.Tab]; idx > 0 {
		return expr.ColRef{Tab: idx, Col: c.Col}, true
	}
	// Try to establish a backjoin: some unique key of the table must be fully
	// available as (grouping) view outputs, so the equijoin back to the base
	// table is 1:1 and preserves rows and duplication (§7). Key columns are
	// resolved through the VIEW's equivalence classes (not the query's) so
	// the filter tree's backjoinable-closure keys stay conservative.
	tbl := s.v.Def.Tables[c.Tab].Table
	base := s.v.A.EC.Offsets()[c.Tab]
next:
	for _, uk := range tbl.UniqueKeys {
		if len(uk) == 0 {
			continue
		}
		for _, kc := range uk {
			if s.d.viewOrd[base+int32(kc)] < 0 {
				continue next
			}
		}
		ords := make([]int, len(uk))
		for i, kc := range uk {
			ords[i] = int(s.d.viewOrd[base+int32(kc)])
		}
		s.backjoins = append(s.backjoins, Backjoin{
			Table:    tbl,
			ViewOrds: ords,
			KeyCols:  append([]int(nil), uk...),
		})
		s.byTab[c.Tab] = len(s.backjoins)
		return expr.ColRef{Tab: len(s.backjoins), Col: c.Col}, true
	}
	return expr.ColRef{}, false
}
