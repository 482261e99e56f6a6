package exec

import (
	"cmp"
	"slices"

	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// aggReader reads one group key or aggregate argument of tuple i of a sink's
// current batch. gv yields the boxed value; vals is set as well when the sink
// could bind the expression to typed column arrays: the sink evaluates it
// over each batch, before the batch's tuples are added. The zero reader is
// the argument COUNT(*) does not have.
type aggReader struct {
	kind     sqlvalue.Kind // of vals: KindInt, KindDate or KindFloat
	nullable bool          // vals may hold a NULL
	vals     *vec
	gv       func(i int) (sqlvalue.Value, error)
}

// fold adds tuple i's value of r to st. A DATE argument goes the boxed way,
// where accumulate refuses it.
func (st *aggState) fold(r *aggReader, i int) error {
	switch {
	case r.vals != nil && r.kind == sqlvalue.KindInt:
		if !r.vals.isNull(i) {
			st.addIntSum(r.vals.ints[i])
		}
	case r.vals != nil && r.kind == sqlvalue.KindFloat:
		if !r.vals.isNull(i) {
			st.addFloatSum(r.vals.floats[i])
		}
	case r.gv != nil:
		v, err := r.gv(i)
		if err != nil {
			return err
		}
		return st.accumulate(v)
	}
	return nil
}

// groupTable is one worker's partial aggregation, and the one place groups
// are found, created and folded into. Groups are numbered in first-seen order
// by a keyTable — on words when every key is an int-family column (one word
// per key, plus a word of NULL flags if any column has NULLs), on the
// sqlvalue.AppendKey bytes of the boxed keys otherwise — and their state
// lives in flat slices indexed by group id.
type groupTable struct {
	aggs     []AggSpec
	keys     []aggReader
	num, den []aggReader // den is nil when no aggregate has a Den
	typed    bool        // keys are words
	masked   bool        // … followed by a word with bit j set when key j is NULL
	tab      keyTable
	key      keyList          // key of the tuple being added, in tab's shape …
	kv       []sqlvalue.Value // … and, unless typed, boxed

	ords         []int64          // per group: ordinal of its first tuple
	keyVals      []sqlvalue.Value // per group, unless typed: len(keys) key values as first seen
	numSt, denSt []aggState       // per group: len(aggs) states
}

// aggArg is the expression an aggregate folds, nil for COUNT(*).
func aggArg(sa SimpleAgg) expr.Expr {
	if sa.Kind == spjg.AggCountStar {
		return nil
	}
	return sa.Arg
}

// newGroupTable binds every key and argument of a through bind (key tells it
// which of the two it is binding).
func newGroupTable(a *HashAgg, bind func(ex expr.Expr, key bool) aggReader) *groupTable {
	g := &groupTable{aggs: a.Aggs, num: make([]aggReader, len(a.Aggs)), kv: make([]sqlvalue.Value, len(a.GroupBy))}
	g.typed = len(a.GroupBy) > 0 && len(a.GroupBy) < 64
	for _, ex := range a.GroupBy {
		r := bind(ex, true)
		g.keys = append(g.keys, r)
		g.typed = g.typed && r.vals != nil && r.kind != sqlvalue.KindFloat
		g.masked = g.masked || r.nullable
	}
	for i, spec := range a.Aggs {
		if arg := aggArg(spec.Num); arg != nil {
			g.num[i] = bind(arg, false)
		}
		if spec.Den == nil {
			continue
		}
		if g.den == nil {
			g.den = make([]aggReader, len(a.Aggs))
		}
		if arg := aggArg(*spec.Den); arg != nil {
			g.den[i] = bind(arg, false)
		}
	}
	width := 0
	if g.typed {
		width = len(g.keys)
		if g.masked {
			width++
		}
	}
	g.tab, g.key.width = newKeyTable(width, 0), width
	return g
}

// keyRow is group id's key as boxed values: as first seen, or — typed —
// recovered from the words into g.kv.
func (g *groupTable) keyRow(id int) []sqlvalue.Value {
	nk := len(g.keys)
	if !g.typed {
		return g.keyVals[id*nk : (id+1)*nk]
	}
	w := g.tab.wordsOf(id)
	for j := range g.keys {
		switch {
		case g.masked && w[nk]&(1<<j) != 0:
			g.kv[j] = sqlvalue.Null
		case g.keys[j].kind == sqlvalue.KindDate:
			g.kv[j] = sqlvalue.NewDate(w[j])
		default:
			g.kv[j] = sqlvalue.NewInt(w[j])
		}
	}
	return g.kv
}

// group returns the id of tuple i's group; an id equal to the number of
// groups so far is a new group (whose boxed key, unless typed, is in g.kv).
func (g *groupTable) group(i int) (int32, error) {
	if len(g.keys) == 0 {
		return 0, nil // scalar aggregation: the one group
	}
	g.key.reset()
	if !g.typed {
		for j := range g.keys {
			v, err := g.keys[j].gv(i)
			if err != nil {
				return 0, err
			}
			g.kv[j] = v
			g.key.bytes = append(v.AppendKey(g.key.bytes), '\x1f')
		}
		g.key.ends = append(g.key.ends, int32(len(g.key.bytes)))
		return g.tab.put(&g.key, 0), nil
	}
	nulls := int64(0)
	for j := range g.keys {
		v := g.keys[j].vals.ints[i]
		if g.keys[j].vals.isNull(i) {
			v, nulls = 0, nulls|1<<j
		}
		g.key.words = append(g.key.words, v)
	}
	if g.masked {
		g.key.words = append(g.key.words, nulls)
	}
	return g.tab.put(&g.key, 0), nil
}

// add folds tuple i, whose global ordinal is ord, into its group.
func (g *groupTable) add(i int, ord int64) error {
	id, err := g.group(i)
	if err != nil {
		return err
	}
	na := len(g.aggs)
	if int(id) == len(g.ords) {
		// Workers claim morsels off an increasing counter, so a table sees
		// ordinals in increasing order: a group's first tuple is its minimum.
		g.ords = append(g.ords, ord)
		if !g.typed {
			g.keyVals = append(g.keyVals, g.kv...)
		}
		g.numSt = append(g.numSt, make([]aggState, na)...)
		if g.den != nil {
			g.denSt = append(g.denSt, make([]aggState, na)...)
		}
	}
	for s := 0; s < na; s++ {
		st := &g.numSt[int(id)*na+s]
		st.count++
		if err := st.fold(&g.num[s], i); err != nil {
			return err
		}
		if g.aggs[s].Den != nil {
			st := &g.denSt[int(id)*na+s]
			st.count++
			if err := st.fold(&g.den[s], i); err != nil {
				return err
			}
		}
	}
	return nil
}

// absorb merges another worker's table into g, group by group in o's order,
// on the keys as the tables hold them — nothing is boxed or re-encoded.
func (g *groupTable) absorb(o *groupTable) error {
	nk, na := len(g.keys), len(g.aggs)
	for oid, ord := range o.ords {
		id := int32(0)
		if nk > 0 {
			id = g.tab.put(&o.tab.keyList, oid)
		}
		var keys []sqlvalue.Value // as o first saw them; typed keys need none
		if !g.typed {
			keys = o.keyVals[oid*nk : (oid+1)*nk]
		}
		if int(id) == len(g.ords) {
			g.ords = append(g.ords, ord)
			g.keyVals = append(g.keyVals, keys...)
			g.numSt = append(g.numSt, o.numSt[oid*na:(oid+1)*na]...)
			if g.den != nil {
				g.denSt = append(g.denSt, o.denSt[oid*na:(oid+1)*na]...)
			}
			continue
		}
		if ord < g.ords[id] {
			// o saw the group first: its ordinal and its key values stand.
			g.ords[id] = ord
			if !g.typed {
				copy(g.keyVals[int(id)*nk:], keys)
			}
		}
		for s := 0; s < na; s++ {
			if err := g.numSt[int(id)*na+s].merge(&o.numSt[oid*na+s]); err != nil {
				return err
			}
			if g.aggs[s].Den != nil {
				if err := g.denSt[int(id)*na+s].merge(&o.denSt[oid*na+s]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// finishAgg merges the workers' tables and renders the groups in global
// first-seen order, matching the reference evaluator's output exactly.
func finishAgg(tabs []*groupTable, a *HashAgg) ([]storage.Row, error) {
	g := tabs[0]
	for _, o := range tabs[1:] {
		if err := g.absorb(o); err != nil {
			return nil, err
		}
	}
	if len(a.GroupBy) == 0 && len(g.ords) == 0 {
		return []storage.Row{scalarEmptyAggRow(a.Aggs)}, nil
	}
	order := make([]int, len(g.ords))
	for id := range order {
		order[id] = id
	}
	if len(tabs) > 1 {
		slices.SortFunc(order, func(x, y int) int { return cmp.Compare(g.ords[x], g.ords[y]) })
	}
	nk, na := len(a.GroupBy), len(a.Aggs)
	out := make([]storage.Row, 0, len(order))
	var alloc rowAlloc
	for _, id := range order {
		var den []aggState
		if g.den != nil {
			den = g.denSt[id*na : (id+1)*na]
		}
		row := alloc.row(nk + na)
		if err := finishAggRow(row, g.keyRow(id), g.numSt[id*na:(id+1)*na], den, a.Aggs); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// ridAggSink aggregates rid tuples — of a join pipeline, or of a bare scan, a
// one-relation tuple — without gathering a row. A key or argument over one
// store-backed relation reads that relation's typed arrays at the tuple's
// rid; a bare column of any relation reads its boxed value there; only what
// is left (expressions spanning relations, or over row-backed columns) is
// compiled and run over a scratch row holding the columns it references.
type ridAggSink struct {
	g     *groupTable
	cur   *ridBatch
	typed []typedArg
	eval  ridEval
	wide  storage.Row // nil when nothing is left for eval to fill
	ord   int64
}

// typedArg is a key or argument over relation rel, evaluated once per batch.
type typedArg struct {
	x   *vecExpr
	rel int
	vs  vecStack
}

func newRidAggSink(a *HashAgg, layout *ridLayout) *ridAggSink {
	s := &ridAggSink{}
	var rest []expr.Expr
	s.g = newGroupTable(a, func(ex expr.Expr, key bool) aggReader {
		if r, ok := s.bind(ex, key, layout); ok {
			return r
		}
		rest = append(rest, ex)
		c := expr.Compile(ex)
		return aggReader{gv: func(int) (sqlvalue.Value, error) { return c(s.wide) }}
	})
	if rest != nil {
		s.eval = newRidEval(layout, rest...)
		s.wide = make(storage.Row, s.eval.width)
	}
	return s
}

// bind binds ex to the tuples of s.cur when every column it reads belongs to
// one relation: a bare column gets its boxed emitter, and — over a column
// store — a typed numeric expression too (for a key, only a bare int or date
// column: its boxed value must be recoverable from the word).
func (s *ridAggSink) bind(ex expr.Expr, key bool, layout *ridLayout) (aggReader, bool) {
	rel := -1
	for _, ref := range expr.Columns(ex) {
		if ref.Tab != 0 || ref.Col < 0 || ref.Col >= layout.width() {
			return aggReader{}, false // reads NULL, as compiled
		}
		r, _ := layout.locate(ref.Col)
		if rel >= 0 && r != rel {
			return aggReader{}, false
		}
		rel = r
	}
	if rel < 0 {
		return aggReader{}, false
	}
	r, off := layout.rels[rel], layout.offs[rel]
	var rd aggReader
	col, isCol := ex.(expr.Column)
	if isCol {
		em := r.emitter(col.Ref.Col - off)
		rd.gv = func(k int) (sqlvalue.Value, error) { return em(int(s.cur.sel[rel][k])), nil }
	}
	if r.store != nil && (isCol || !key) {
		local := expr.MapColumns(ex, func(c expr.ColRef) expr.ColRef { return expr.ColRef{Col: c.Col - off} })
		if x, ok := compileVec(local, r.cols); ok && x.numeric() && (isCol || x.kind != sqlvalue.KindDate) {
			rd.kind, rd.nullable = x.kind, !isCol || r.cols[col.Ref.Col-off].Nulls != nil
			s.typed = append(s.typed, typedArg{x: x, rel: rel})
			rd.vals = s.typed[len(s.typed)-1].vs.at(0)
		}
	}
	return rd, rd.gv != nil || rd.vals != nil
}

func (s *ridAggSink) begin(seq int) { s.ord = ordinal(seq, 0) }

func (s *ridAggSink) pushRids(in *ridBatch) error {
	s.cur = in
	for i, t := range s.typed {
		t.x.eval(in.sel[t.rel][:in.n], &s.typed[i].vs, 0, false)
	}
	for k := 0; k < in.n; k++ {
		if s.wide != nil {
			s.eval.fill(s.wide, in, k)
		}
		if err := s.g.add(k, s.ord); err != nil {
			return err
		}
		s.ord++
	}
	return nil
}

// aggregate runs p into per-worker group tables and merges them in global
// first-seen order, the reference evaluator's output exactly. No input row is
// ever materialized.
func (e *Engine) aggregate(p pipeline, a *HashAgg) ([]storage.Row, error) {
	sinks, err := e.run(p, func(int) ridSink { return newRidAggSink(a, p.layout) })
	if err != nil {
		return nil, err
	}
	tabs := make([]*groupTable, len(sinks))
	for i, s := range sinks {
		tabs[i] = s.(*ridAggSink).g
	}
	return finishAgg(tabs, a)
}
