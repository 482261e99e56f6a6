package core

import (
	"slices"

	"matview/internal/expr"
	"matview/internal/lattice"
	"matview/internal/spjg"
)

// ViewKeys are the precomputed per-view keys for the filter tree's
// partitioning conditions (§4.2), as sets of ids from the matcher's
// dictionary. Column-level keys hold base-table columns
// ("lineitem.l_partkey"); instance-level keys (source tables, hub) hold
// numbered occurrences ("nation#0") so multisets reduce to sets.
type ViewKeys struct {
	// SourceTables is the view's table multiset (§4.2.1: view sources must be
	// a superset of the query's).
	SourceTables lattice.Set
	// Hub is the multiset key of the view's hub (§4.2.2: hub must be a subset
	// of the query's sources).
	Hub lattice.Set
	// OutputCols is the extended output column list (§4.2.3): every column
	// equivalent to a simple output column.
	OutputCols lattice.Set
	// OutputExprs holds the fingerprint texts of complex scalar outputs, and,
	// for aggregation views, the texts of the sum arguments (§4.2.7; used
	// only against aggregation-view candidates).
	OutputExprs lattice.Set
	// Residuals holds the fingerprint texts of the view's residual predicates
	// (§4.2.6: must be a subset of the query's).
	Residuals lattice.Set
	// RangeColsReduced is the reduced range constraint list (§4.2.5):
	// constrained columns in trivial equivalence classes only.
	RangeColsReduced lattice.Set
	// RangeClasses lists, for every constrained view class, all its member
	// columns — the complete constraint list used by the strong
	// range-constraint check.
	RangeClasses []lattice.Set
	// GroupingCols is the extended grouping column list (§4.2.4), aggregation
	// views only.
	GroupingCols lattice.Set
	// GroupingExprs holds the fingerprint texts of complex grouping
	// expressions (§4.2.8), aggregation views only.
	GroupingExprs lattice.Set
	// IsAggregate routes the view into the aggregation subtree.
	IsAggregate bool
}

// QueryKeys are the per-invocation search keys derived from a query
// expression, mirroring ViewKeys on the query side of each condition. An
// element the dictionary does not know is left out of the keys that subset
// searches use; where a superset search would need it, no view can qualify
// and the subtree is skipped.
type QueryKeys struct {
	SourceTables lattice.Set
	// OutputClasses holds, per simple scalar output, every column in its
	// equivalence class (the condition: the view's extended output list must
	// intersect each class).
	OutputClasses []lattice.Set
	// OutputExprsSPJ holds complex scalar output texts, matched against SPJ
	// views; OutputExprsAgg additionally carries the sum arguments, matched
	// against aggregation views.
	OutputExprsSPJ lattice.Set
	OutputExprsAgg lattice.Set
	Residuals      lattice.Set
	// ExtRangeCols is the extended range constraint list (§4.2.5): every
	// column in every constrained query class.
	ExtRangeCols lattice.Set
	// GroupingClasses and GroupingExprs mirror the output-side keys for the
	// query's group-by list (aggregation queries only).
	GroupingClasses []lattice.Set
	GroupingExprs   lattice.Set
	IsAggregate     bool
	// ScalarAggregate marks an aggregate query with no GROUP BY; such queries
	// never match aggregation views (see Match).
	ScalarAggregate bool
	// SkipSPJ / SkipAgg are set when the query needs a table occurrence or an
	// expression that no SPJ / aggregation view has.
	SkipSPJ, SkipAgg bool
}

// keyCols translates the columns of one analysed expression to dictionary
// column ids.
type keyCols struct {
	a       *spjg.Analysis
	colBase []int // per table instance
}

func (kc keyCols) id(c expr.ColRef) int { return kc.colBase[c.Tab] + c.Col }

// addClass adds every column equivalent to the column with EC id x.
func (kc keyCols) addClass(s lattice.Set, x int32) lattice.Set {
	cls := kc.a.EC.ClassIDs(x)
	if cls == nil {
		return s.Add(kc.id(kc.a.EC.Ref(x)))
	}
	for _, m := range cls {
		s = s.Add(kc.id(kc.a.EC.Ref(m)))
	}
	return s
}

// occurrence returns how many earlier entries of the FROM list reference the
// same base table as entry i.
func occurrence(tables []spjg.TableRef, i int) int {
	n := 0
	for _, u := range tables[:i] {
		if u.Table.Name == tables[i].Table.Name {
			n++
		}
	}
	return n
}

// computeViewKeys derives the filter-tree keys for a view being registered,
// interning their elements.
func (m *Matcher) computeViewKeys(v *View) ViewKeys {
	def, a, d := v.Def, v.A, v.derived
	m.dict.mu.Lock()
	defer m.dict.mu.Unlock()

	k := ViewKeys{IsAggregate: d.isAgg}
	occIDs := make([]int, len(def.Tables))
	kc := keyCols{a: a, colBase: make([]int, len(def.Tables))}
	for i, t := range def.Tables {
		occ := occurrence(def.Tables, i)
		ids := m.dict.internTable(t.Table, occ+1)
		kc.colBase[i], occIDs[i] = ids.colBase, ids.occ[occ]
		k.SourceTables = k.SourceTables.Add(occIDs[i])
	}
	for _, ti := range v.Hub {
		k.Hub = k.Hub.Add(occIDs[ti])
	}

	// Extended output columns and complex output expressions.
	for _, id := range d.colIDs {
		k.OutputCols = kc.addClass(k.OutputCols, id)
	}
	for _, fp := range d.exprFPs {
		k.OutputExprs = k.OutputExprs.Add(m.dict.internText(m.dict.texts, fp.Text))
	}
	for _, fp := range d.sumFPs {
		k.OutputExprs = k.OutputExprs.Add(m.dict.internText(m.dict.sums, fp.Text))
	}
	// Backjoinable closure: if a table instance's unique key is fully
	// available among the (grouping) output columns, every column of that
	// table is recoverable through a backjoin (§7), so the filter tree's
	// output- and grouping-column conditions must treat them as available.
	if m.opts.BackjoinSubstitutes {
		k.OutputCols = backjoinClosure(def, kc, k.OutputCols)
	}

	// Residual texts. Disjunctive OR-of-range residuals count as range
	// constraints, not as textual residuals, when the extension is enabled.
	var dis disjunctions
	if m.opts.DisjunctiveRanges {
		dis.scan(d.ors, a.EC, a.EC.Offsets(), 0)
	}
	for i, fp := range a.ResidualFPs {
		if !dis.consumed(i) {
			k.Residuals = k.Residuals.Add(m.dict.internText(m.dict.texts, fp.Text))
		}
	}

	// Range constraint lists (plain ranges plus disjunctive classes), one
	// entry per constrained class.
	var reps []int32
	for _, cr := range a.Ranges {
		reps = append(reps, cr.Rep)
	}
	for _, e := range dis.entries {
		reps = append(reps, e.rep)
	}
	slices.Sort(reps)
	for _, rep := range slices.Compact(reps) {
		k.RangeClasses = append(k.RangeClasses, kc.addClass(nil, rep))
		if a.EC.ClassIDs(rep) == nil {
			k.RangeColsReduced = k.RangeColsReduced.Add(kc.id(a.EC.Ref(rep)))
		}
	}

	// Grouping keys for aggregation views.
	if k.IsAggregate {
		for _, g := range def.GroupBy {
			if col, ok := g.(expr.Column); ok {
				k.GroupingCols = kc.addClass(k.GroupingCols, a.EC.ID(col.Ref))
			} else {
				text := expr.NewFingerprint(expr.Normalize(g)).Text
				k.GroupingExprs = k.GroupingExprs.Add(m.dict.internText(m.dict.texts, text))
			}
		}
		if m.opts.BackjoinSubstitutes {
			// On aggregation views the backjoin key must consist of grouping
			// columns, so the closure over the grouping list is the right
			// extension for the grouping-column condition too.
			k.GroupingCols = backjoinClosure(def, kc, k.GroupingCols)
		}
	}
	return k
}

// backjoinClosure adds the columns of every base table whose unique key is
// fully contained (by base-table column) in the available set — the columns
// a backjoin can recover. Name-level checking is slightly looser than the
// matcher's instance-level test, which keeps the filter conservative.
func backjoinClosure(def *spjg.Query, kc keyCols, available lattice.Set) lattice.Set {
	out := slices.Clone(available)
	for ti, tref := range def.Tables {
		t := tref.Table
		for _, uk := range t.UniqueKeys {
			all := len(uk) > 0
			for _, c := range uk {
				all = all && available.Has(kc.colBase[ti]+c)
			}
			if all {
				for c := range t.Columns {
					out = out.Add(kc.colBase[ti] + c)
				}
				break
			}
		}
	}
	return out
}

// Keys returns the filter-tree search keys of the expression, computed on
// first use from the context's analysis. For a subexpression's context they
// are valid until the parent's next Sub.
func (qc *QueryContext) Keys() *QueryKeys {
	if !qc.keysOK {
		qc.computeKeys(&qc.keys)
		qc.keysOK = true
	}
	return &qc.keys
}

// computeKeys fills k, reusing the storage of its sets.
func (qc *QueryContext) computeKeys(k *QueryKeys) {
	a, dict := qc.a, qc.m.dict
	*k = QueryKeys{
		IsAggregate:     qc.isAgg,
		ScalarAggregate: qc.isAgg && len(qc.groupBy) == 0,
		OutputClasses:   slices.Grow(k.OutputClasses[:0], len(qc.outputs)),
		OutputExprsSPJ:  k.OutputExprsSPJ[:0],
		OutputExprsAgg:  k.OutputExprsAgg[:0],
		Residuals:       k.Residuals[:0],
		GroupingClasses: slices.Grow(k.GroupingClasses[:0], len(qc.groupBy)),
		GroupingExprs:   k.GroupingExprs[:0],
	}
	dict.mu.RLock()
	defer dict.mu.RUnlock()

	// The column sets — at most one per output and grouping expression, plus
	// the range list — are carved out of one allocation, each with room for
	// every column id.
	colWords, occWords := (dict.cols+63)/64, (dict.occs+63)/64
	if need := (len(qc.outputs)+len(qc.groupBy)+1)*colWords + occWords; cap(qc.keyArena) < need {
		qc.keyArena = make([]uint64, 2*need) // room for the larger subexpressions to come
	}
	arena := qc.keyArena[:cap(qc.keyArena)]
	take := func(words int) lattice.Set {
		s := arena[:0:words]
		arena = arena[words:]
		return s
	}

	qc.colBase = slices.Grow(qc.colBase[:0], len(qc.tables))[:len(qc.tables)]
	kc := keyCols{a: a, colBase: qc.colBase}
	k.SourceTables = take(occWords)
	for i, t := range qc.tabs {
		ids := dict.tables[qc.tables[t].Table.Name]
		occ := qc.occurrence(i)
		if ids == nil || occ >= len(ids.occ) {
			// No view has this many occurrences of the table, so none has a
			// superset of the query's sources.
			k.SkipSPJ, k.SkipAgg = true, true
			return
		}
		kc.colBase[t] = ids.colBase
		k.SourceTables = k.SourceTables.Add(ids.occ[occ])
	}

	for i, o := range qc.outputs {
		switch {
		case o.Expr != nil:
			if col, ok := o.Expr.(expr.Column); ok {
				k.OutputClasses = append(k.OutputClasses, kc.addClass(take(colWords), a.EC.ID(col.Ref)))
			} else if x := qc.OutputFP(i); x != nil {
				if id, ok := dict.texts[x.Text]; ok {
					k.OutputExprsSPJ = k.OutputExprsSPJ.Add(id)
					k.OutputExprsAgg = k.OutputExprsAgg.Add(id)
				} else {
					k.SkipSPJ, k.SkipAgg = true, true
				}
			}
		case o.Agg != nil && (o.Agg.Kind == spjg.AggSum || o.Agg.Kind == spjg.AggAvg):
			if x := qc.OutputFP(i); x == nil {
				k.SkipAgg = true
			} else if id, ok := dict.sums[x.Text]; ok {
				k.OutputExprsAgg = k.OutputExprsAgg.Add(id)
			} else {
				k.SkipAgg = true
			}
		}
	}

	var dis disjunctions
	if qc.m.opts.DisjunctiveRanges {
		dis.scan(qc.ors, a.EC, a.EC.Offsets(), 0)
	}
	for i, fp := range a.ResidualFPs {
		if dis.consumed(i) {
			continue
		}
		if id, ok := dict.texts[fp.Text]; ok {
			k.Residuals = k.Residuals.Add(id)
		}
	}

	k.ExtRangeCols = take(colWords)
	for _, cr := range a.Ranges {
		k.ExtRangeCols = kc.addClass(k.ExtRangeCols, cr.Rep)
	}
	for _, e := range dis.entries {
		k.ExtRangeCols = kc.addClass(k.ExtRangeCols, e.rep)
	}

	for gi, g := range qc.groupBy {
		if col, ok := g.(expr.Column); ok {
			k.GroupingClasses = append(k.GroupingClasses, kc.addClass(take(colWords), a.EC.ID(col.Ref)))
		} else if id, ok := dict.texts[qc.groups[gi].Text]; ok {
			k.GroupingExprs = k.GroupingExprs.Add(id)
		} else {
			k.SkipAgg = true
		}
	}
}

// ComputeQueryKeys derives the search keys for a query expression. Callers
// that go on to match the candidates should build one QueryContext and use
// its Keys and Match instead, which analyses the query once.
func (m *Matcher) ComputeQueryKeys(q *spjg.Query) QueryKeys {
	return *m.NewQueryContext(q).Keys()
}
