package exec

import (
	"cmp"
	"slices"

	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// aggReader reads one group key or aggregate argument of the tuples of a
// sink's current batch: vals, when the sink could bind the expression to typed
// column arrays, is evaluated over each batch before it is added; gv yields
// tuple i's boxed value. An argument has one of the two (vals only for BIGINT
// or DOUBLE, which cannot fail); the zero reader is the one of COUNT(*).
type aggReader struct {
	kind     sqlvalue.Kind // of vals: KindInt, KindDate or KindFloat
	nullable bool          // vals may hold a NULL
	vals     *vec
	gv       func(i int) (sqlvalue.Value, error)
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
	boxed    bool        // some key or argument is read through gv
	fill     func(k int) // fills the row the compiled gvs read; nil when none does
	tab      keyTable
	kv       []sqlvalue.Value // unless typed, the boxed key of the tuple being added

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
	g.boxed = len(g.keys) > 0 && !g.typed
	// An argument is read typed when it can be, except a DATE one, which goes
	// the boxed way, where accumulate refuses it.
	arg := func(sa SimpleAgg) (r aggReader) {
		if ex := aggArg(sa); ex != nil {
			r = bind(ex, false)
		}
		if r.vals != nil && r.kind != sqlvalue.KindDate {
			r.gv = nil
		} else {
			r.vals = nil
		}
		g.boxed = g.boxed || r.gv != nil
		return r
	}
	for i, spec := range a.Aggs {
		g.num[i] = arg(spec.Num)
		if spec.Den == nil {
			continue
		}
		if g.den == nil {
			g.den = make([]aggReader, len(a.Aggs))
		}
		g.den[i] = arg(*spec.Den)
	}
	width := 0
	if g.typed {
		width = len(g.keys)
		if g.masked {
			width++
		}
	}
	g.tab = newKeyTable(width, 0)
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

// addBatch folds the n tuples of a batch, the first of global ordinal ord,
// into their groups. Typed keys are numbered and typed arguments folded a
// column at a time: neither can fail, so the order changes no answer. What is
// boxed runs tuple by tuple in the reference's order — the keys, then each
// aggregate's Num, then its Den — so the first error or panic is the
// reference's. l and gids are the batch's scratch.
func (g *groupTable) addBatch(n int, ord int64, l *keyList, gids []int32) ([]int32, error) {
	gids = fill(gids, n, 0)
	switch {
	case g.typed:
		g.groupTyped(n, ord, l, gids)
	case len(g.keys) == 0 && len(g.ords) == 0 && n > 0:
		g.open(ord) // scalar aggregation: the one group
	}
	na := len(g.aggs)
	for k := 0; g.boxed && k < n; k++ {
		if g.fill != nil {
			g.fill(k)
		}
		if !g.typed && len(g.keys) > 0 {
			id, err := g.groupBoxed(k, ord+int64(k), l)
			if err != nil {
				return gids, err
			}
			gids[k] = id
		}
		for s, at := 0, int(gids[k])*na; s < na; s++ {
			err := foldBoxed(g.numSt, g.num, at+s, s, k)
			if err == nil {
				err = foldBoxed(g.denSt, g.den, at+s, s, k)
			}
			if err != nil {
				return gids, err
			}
		}
	}
	for s := 0; s < na; s++ {
		foldCol(g.numSt, na, s, gids, &g.num[s])
		if g.aggs[s].Den != nil {
			foldCol(g.denSt, na, s, gids, &g.den[s])
		}
	}
	return gids, nil
}

// open adds a group whose first tuple has ordinal ord. Workers claim morsels
// off an increasing counter, so a table sees ordinals in increasing order: a
// group's first tuple is its minimum.
func (g *groupTable) open(ord int64) {
	g.ords = append(g.ords, ord)
	g.numSt = append(g.numSt, make([]aggState, len(g.aggs))...)
	if g.den != nil {
		g.denSt = append(g.denSt, make([]aggState, len(g.aggs))...)
	}
}

// groupTyped numbers the batch's keys into gids, reading a key column at a
// time into l, and opens the groups first seen in the batch. gids is all 0
// on entry.
func (g *groupTable) groupTyped(n int, ord int64, l *keyList, gids []int32) {
	nk, w := len(g.keys), g.tab.width
	l.width = w
	l.reset()
	l.words = slices.Grow(l.words, n*w)[:n*w]
	for k := 0; g.masked && k < n; k++ {
		l.words[k*w+nk] = 0
	}
	for j := range g.keys {
		v := g.keys[j].vals
		for k, x := range v.ints[:n] {
			if v.isNull(k) {
				x, l.words[k*w+nk] = 0, l.words[k*w+nk]|1<<j
			}
			l.words[k*w+j] = x
		}
	}
	if w == 1 { // most tuples find their group: look the batch up at once
		g.tab.findInts(l.words, gids)
	}
	for k, id := range gids {
		if w != 1 || id < 0 {
			id = g.tab.put(l, k)
			gids[k] = id
		}
		if int(id) == len(g.ords) {
			g.open(ord + int64(k))
		}
	}
}

// groupBoxed returns the id of tuple k's group, on its boxed keys, opening
// the group if k is its first tuple.
func (g *groupTable) groupBoxed(k int, ord int64, l *keyList) (int32, error) {
	l.width = 0
	l.reset()
	for j := range g.keys {
		v, err := g.keys[j].gv(k)
		if err != nil {
			return 0, err
		}
		g.kv[j] = v
		l.bytes = append(v.AppendKey(l.bytes), '\x1f')
	}
	l.ends = append(l.ends, int32(len(l.bytes)))
	id := g.tab.put(l, 0)
	if int(id) == len(g.ords) {
		g.open(ord)
		g.keyVals = append(g.keyVals, g.kv...)
	}
	return id, nil
}

// foldBoxed adds tuple k's value of aggregate s's argument, if it is boxed,
// to sts[at].
func foldBoxed(sts []aggState, rs []aggReader, at, s, k int) error {
	if rs == nil || rs[s].gv == nil {
		return nil
	}
	v, err := rs[s].gv(k)
	if err != nil {
		return err
	}
	return sts[at].accumulate(v)
}

// foldCol counts every tuple of a batch into its group's state for aggregate
// s, and adds a typed argument's values.
func foldCol(sts []aggState, na, s int, gids []int32, r *aggReader) {
	v := r.vals
	switch {
	case v != nil && r.kind == sqlvalue.KindInt:
		for k, id := range gids {
			st := &sts[int(id)*na+s]
			st.count++
			if !v.isNull(k) {
				st.addIntSum(v.ints[k])
			}
		}
	case v != nil:
		for k, id := range gids {
			st := &sts[int(id)*na+s]
			st.count++
			if !v.isNull(k) {
				st.addFloatSum(v.floats[k])
			}
		}
	default:
		for _, id := range gids {
			sts[int(id)*na+s].count++
		}
	}
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
	sc    *ridScratch // the batch's keys and group ids
}

// typedArg is a key or argument over relation rel, evaluated once per batch.
type typedArg struct {
	x    *vecExpr
	rel  int
	cols []storage.ColView // of relation rel
	vs   vecStack
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
		s.g.fill = func(k int) { s.eval.fill(s.wide, s.cur, k) }
	}
	s.sc = ridScratchPool.Get().(*ridScratch)
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
		if x, ok := compileVec(local, colKinds(r.cols)); ok && x.numeric() && (isCol || x.kind != sqlvalue.KindDate) {
			rd.kind, rd.nullable = x.kind, !isCol || r.cols[col.Ref.Col-off].Nullable()
			s.typed = append(s.typed, typedArg{x: x, rel: rel, cols: r.cols})
			rd.vals = s.typed[len(s.typed)-1].vs.at(0)
		}
	}
	return rd, rd.gv != nil || rd.vals != nil
}

func (s *ridAggSink) begin(seq int) { s.ord = ordinal(seq, 0) }

func (s *ridAggSink) pushRids(in *ridBatch) error {
	s.cur = in
	for i, t := range s.typed {
		t.x.eval(t.cols, in.sel[t.rel][:in.n], &s.typed[i].vs, 0, false)
	}
	var err error
	s.sc.ids, err = s.g.addBatch(in.n, s.ord, &s.sc.key, s.sc.ids)
	s.ord += int64(in.n)
	return err
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
		ridScratchPool.Put(s.(*ridAggSink).sc)
	}
	return finishAgg(tabs, a)
}
