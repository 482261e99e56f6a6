package exec

import (
	"fmt"
	"slices"
	"sync/atomic"

	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// Delta terms: a view's change under one write, as an engine pipeline.
//
// A term is the view's query with some FROM instances of the changed table
// standing for Δ, the write's rows, and every other instance read as the
// table is now written (its head). One Δ instance leads: its conjuncts run
// first as typed kernels over the Δ batch (Select; the irrelevant-update
// test: a term no Δ row passes runs nothing), and the rows they keep head
// the pipeline. Each other instance joins in turn through an index-lookup
// stage (joinkey.go) — a table instance through the index the writer keeps
// on its join columns (Table.Locator), a further Δ instance through an
// index over Δ the statement builds once — then a filter stage for the
// conjuncts it completes, into the engine's group table or a gather of the
// view's outputs. The term is planned once per view set; its stages, chain
// and sink are built on its first run and rebound to each statement's
// stores, and built again only when a column the group table reads typed
// changes kind or nullability. Selections, indexes over Δ and first joins
// are stage outputs a statement computes once for every term that names
// the same one.

// DeltaTerm is one compiled delta term. Select, then Run, on one statement's
// DeltaInput; a term is not safe for concurrent use.
type DeltaTerm struct {
	lead   deltaKey  // names the Δ selection it shares with its query's other terms
	filter expr.Expr // Δ's own and constant conjuncts
	pred   atomic.Pointer[scanPred]
	src    scanSource   // Select's scan of Δ
	sel    *deltaShared // the statement's selection for lead: the pipeline's source

	// The pipeline, over Δ and then each further instance in join order.
	layout *ridLayout
	steps  []deltaStep
	agg    *HashAgg    // the sink: the view's groups, or …
	outs   []int       // … per output, its key's index or ^its aggregate's
	proj   []expr.Expr // … its projected rows
	typed  []int       // layout columns the group table may read typed
	shape  []colShape  // … as they were when w was built
	w      *ridWorker  // nil until the first Run
	groups *ridAggSink // w's sink: the group table, or …
	rows   *gatherSink // … the gather

	// Scratch, kept across statements.
	sc    scanScratch
	alloc rowAlloc
	out   []storage.Row
}

// deltaStep joins one more FROM instance to the tuples built so far.
type deltaStep struct {
	name  string    // the table the instance reads
	delta bool      // the instance stands for Δ, not the table
	tup   []int     // layout columns of the probe key
	cols  []int     // the instance's columns they equal
	resid expr.Expr // the conjuncts it completes; nil if none
	node  deltaKey  // names a first join on columns; zero otherwise
	index deltaKey  // names Δ's index by cols, for a Δ instance
	probe ridIndexSpec
}

// colShape is how the group table reads a column: its kind, and whether it
// may hold a NULL.
type colShape struct {
	kind     sqlvalue.Kind
	nullable bool
}

// CompileDeltaTerm compiles q with Δ standing at the FROM positions at, the
// first of which leads. The other instances are read, per statement, as the
// DeltaInput's database holds their tables.
func CompileDeltaTerm(q *spjg.Query, at []int) (*DeltaTerm, error) {
	n, lead := len(q.Tables), at[0]
	t := &DeltaTerm{lead: deltaKey{q: q, pos: lead}, layout: &ridLayout{offs: []int{0}}}
	rank := make([]int, n) // an instance's relation in the layout, once joined; -1 before
	for p := range rank {
		rank[p] = -1
	}
	join := func(p int) {
		l, w := t.layout, len(q.Tables[p].Table.Columns)
		rank[p] = len(l.rels)
		l.rels = append(l.rels, &joinRel{cols: make([]storage.ColView, w), width: w})
		l.offs = append(l.offs, l.width()+w)
	}
	col := func(c expr.ColRef) int { return t.layout.offs[rank[c.Tab]] + c.Col }
	flat := func(e expr.Expr) expr.Expr {
		return expr.MapColumns(e, func(c expr.ColRef) expr.ColRef { return expr.ColRef{Col: col(c)} })
	}
	var conjuncts []expr.Expr
	if q.Where != nil {
		conjuncts = expr.ToCNF(q.Where)
	}
	used := make([]bool, len(conjuncts))
	// within places the conjuncts left that read only instances joined so
	// far, in the layout's frame.
	within := func() expr.Expr {
		var in []expr.Expr
		for ci, c := range conjuncts {
			ok := !used[ci]
			for tab := range expr.TablesUsed(c) {
				ok = ok && rank[tab] >= 0
			}
			if ok {
				in, used[ci] = append(in, flat(c)), true
			}
		}
		if in == nil {
			return nil
		}
		return expr.NewAnd(in...)
	}
	join(lead) // at offset 0: Δ's frame is the layout's
	t.filter = within()

	// Join order: Δ first, then repeatedly the first instance in FROM order
	// that an equality ties to the instances joined so far (a probe on no
	// columns when none does).
	equi := func(c expr.Expr, p int) (tup, local int, ok bool) {
		cmp, isCmp := c.(expr.Cmp)
		l, lok := cmp.L.(expr.Column)
		r, rok := cmp.R.(expr.Column)
		switch {
		case !isCmp || cmp.Op != expr.EQ || !lok || !rok:
		case r.Ref.Tab == p && l.Ref.Tab != p && rank[l.Ref.Tab] >= 0:
			return col(l.Ref), r.Ref.Col, true
		case l.Ref.Tab == p && r.Ref.Tab != p && rank[r.Ref.Tab] >= 0:
			return col(r.Ref), l.Ref.Col, true
		}
		return 0, 0, false
	}
	for range n - 1 {
		next := slices.Index(rank, -1)
	pick:
		for p := range rank {
			for ci, c := range conjuncts {
				if _, _, ok := equi(c, p); ok && !used[ci] && rank[p] < 0 {
					next = p
					break pick
				}
			}
		}
		st := deltaStep{name: q.Tables[next].Table.Name, delta: slices.Contains(at, next)}
		for ci, c := range conjuncts {
			if tup, local, ok := equi(c, next); ok && !used[ci] {
				st.tup, st.cols, used[ci] = append(st.tup, tup), append(st.cols, local), true
			}
		}
		join(next)
		st.resid = within()
		// A first join is named by what it probes (Δ, or the table), Δ's key
		// columns and the probed relation's: two terms with one name compute
		// the same matches.
		if len(t.steps) == 0 && len(st.cols) > 0 {
			st.node = deltaKey{name: fmt.Sprint("join", st.delta, st.name, st.tup, st.cols)}
		}
		if st.delta {
			st.index = deltaKey{name: fmt.Sprint("index", st.cols)}
		}
		t.steps = append(t.steps, st)
	}

	if !q.IsAggregate() {
		for _, o := range q.Outputs {
			t.proj = append(t.proj, flat(o.Expr))
		}
		return t, nil
	}
	// typed reads what the group table may read typed: its keys and arguments.
	typed := func(e expr.Expr) expr.Expr {
		e = flat(e)
		for _, c := range expr.Columns(e) {
			t.typed = append(t.typed, c.Col)
		}
		return e
	}
	t.agg = &HashAgg{}
	for _, g := range q.GroupBy {
		t.agg.GroupBy = append(t.agg.GroupBy, typed(g))
	}
	for _, o := range q.Outputs {
		if o.Agg == nil {
			k := slices.IndexFunc(q.GroupBy, func(g expr.Expr) bool { return expr.Equal(expr.Normalize(o.Expr), expr.Normalize(g)) })
			if k < 0 {
				return nil, fmt.Errorf("exec: output %v not in GROUP BY", o.Expr)
			}
			t.outs = append(t.outs, k)
			continue
		}
		a := SimpleAgg{Kind: o.Agg.Kind}
		if o.Agg.Arg != nil {
			a.Arg = typed(o.Agg.Arg)
		}
		t.agg.Aggs = append(t.agg.Aggs, AggSpec{Num: a})
		t.outs = append(t.outs, ^(len(t.agg.Aggs) - 1))
	}
	t.shape = make([]colShape, len(t.typed))
	return t, nil
}

// DeltaInput is one statement's Δ and the database whose tables, as written,
// its terms read besides it. It holds what the statement computes once for
// all its terms; Bind starts the next statement.
type DeltaInput struct {
	delta  *storage.ColumnStore
	db     *storage.Database
	gen    uint64
	shared map[deltaKey]*deltaShared
}

// deltaKey names a stage output terms share: a lead's Δ selection — the
// terms of one query that Δ leads at one FROM position (a self-join's
// S = {0} and S = {0, 1}) select alike — or, by name, an index over Δ or a
// first join of Δ.
type deltaKey struct {
	q    *spjg.Query
	pos  int
	name string
}

// deltaShared is one such output as of statement gen: a selection of Δ's
// rows, the ridSource of a term's pipeline; an index over Δ; or a first
// join (ridMemo, over Δ's rows), with the scratch it is computed in.
type deltaShared struct {
	gen uint64
	sel []int32
	idx *storage.Index
	ridMemo
	key  keyList
	ids  []int32
	rels [1][]int32
}

func (s *deltaShared) numRows() int { return len(s.sel) }

func (s *deltaShared) morselRids(lo, hi int, _ *scanScratch, out []int32) ([]int32, error) {
	return append(out, s.sel[lo:hi]...), nil
}

// NewDeltaInput returns an input with nothing bound.
func NewDeltaInput() *DeltaInput {
	return &DeltaInput{shared: map[deltaKey]*deltaShared{}}
}

// Bind makes delta, joined to db's tables as they are written, the input of
// the next statement's terms, dropping what the last statement shared.
func (in *DeltaInput) Bind(delta *storage.ColumnStore, db *storage.Database) {
	in.delta, in.db = delta, db
	in.gen++
}

// share returns k's output and whether the statement has yet to compute it.
func (in *DeltaInput) share(k deltaKey) (*deltaShared, bool) {
	s := in.shared[k]
	if s == nil {
		s = &deltaShared{}
		in.shared[k] = s
	}
	todo := s.gen != in.gen
	s.gen = in.gen
	return s, todo
}

// Select runs the term's conjuncts on Δ alone over the bound Δ batch, once
// per statement for every term with the same lead, and returns how many Δ
// rows pass: with none, the statement cannot change what the term adds up
// to and Run returns nothing.
func (t *DeltaTerm) Select(in *DeltaInput) (int, error) {
	s, todo := in.share(t.lead)
	t.sel = s
	if todo {
		err := t.src.bind(in.delta, t.filter, &t.pred)
		if err == nil {
			s.sel, err = t.src.morselRids(0, in.delta.Len(), &t.sc, s.sel[:0])
		}
		t.sc.stats.flush()
		if err != nil {
			s.gen, s.sel = 0, s.sel[:0]
			return 0, err
		}
	}
	return len(s.sel), nil
}

// Run evaluates the term over the Δ rows the last Select kept and returns
// its rows in the view's output order: the delta's groups with their counts
// and sums in first-seen order, or its projected rows. The rows are the
// term's scratch, valid until its next Run.
func (t *DeltaTerm) Run(in *DeltaInput) ([]storage.Row, error) {
	t.out = t.out[:0]
	t.alloc.rewind()
	if t.sel == nil || len(t.sel.sel) == 0 {
		return nil, nil
	}
	defer t.sc.stats.flush()
	if err := t.bind(in); err != nil {
		return nil, err
	}
	if t.groups != nil {
		t.groups.g.reset()
	} else {
		t.rows.buckets[0] = t.out
	}
	// The selection is one morsel, run as Engine.run runs each of its own.
	if err := t.w.morsel(t.sel, 0, len(t.sel.sel)); err != nil {
		return nil, err
	}
	if t.groups == nil {
		t.out = t.rows.buckets[0]
		return t.out, nil
	}
	g, na := t.groups.g, len(t.agg.Aggs)
	for id := range g.ords {
		key, row := g.keyRow(id), t.alloc.row(len(t.outs))
		for i, o := range t.outs {
			if o >= 0 {
				row[i] = key[o]
			} else {
				row[i] = g.numSt[id*na+^o].result(t.agg.Aggs[^o].Num.Kind)
			}
		}
		t.out = append(t.out, row)
	}
	return t.out, nil
}

// bind points the layout at the statement's stores and each probe at its
// index — building one reads every block of what it indexes — and builds
// the pipeline on the first run, or when a column the group table reads
// typed has changed kind or nullability since.
func (t *DeltaTerm) bind(in *DeltaInput) error {
	stats := &t.sc.stats
	if err := bindRel(t.layout.rels[0], in.delta); err != nil {
		return err
	}
	for i := range t.steps {
		st, store, built := &t.steps[i], in.delta, false
		if st.delta {
			x, todo := in.share(st.index)
			if built = todo; todo {
				x.idx, _ = storage.BuildIndexOn(in.delta, st.cols, false, "Δ") // a non-unique build cannot fail
			}
			st.probe.idx = x.idx
		} else if tab := in.db.Table(st.name); tab != nil {
			st.probe.idx, built = tab.Locator(st.cols)
			store = tab.Store()
		} else {
			return fmt.Errorf("exec: unknown table %q", st.name)
		}
		if built {
			stats.BlocksScanned += int64(store.NumBlocks())
		}
		if err := bindRel(t.layout.rels[i+1], store); err != nil {
			return err
		}
	}
	if t.reshaped() {
		t.build()
	}
	if len(t.steps) > 0 && t.steps[0].node.name != "" {
		st := &t.steps[0]
		nd, todo := in.share(st.node)
		if todo { // every Δ row's lookup, once for every term naming it
			nd.rels[0] = appendRun(nd.rels[0][:0], 0, in.delta.Len())
			nd.ids = st.probe.lookup(&ridBatch{n: in.delta.Len(), sel: nd.rels[:]}, &nd.ridMemo, &nd.key, nd.ids, stats)
		}
		st.probe.memo = &nd.ridMemo
	}
	return nil
}

// bindRel points one relation of a term's layout at store, in place: the
// stages and the sink read it through r.cols.
func bindRel(r *joinRel, store *storage.ColumnStore) error {
	r.store = store
	for c := range r.cols {
		r.cols[c] = store.Col(c)
	}
	return checkRid(store.Len())
}

// reshaped records the kind and nullability of every column the group table
// may read typed, and reports whether the pipeline is to be built: it has
// not been, or one of them changed since.
func (t *DeltaTerm) reshaped() bool {
	changed := t.w == nil
	for i, c := range t.typed {
		rel, local := t.layout.locate(c)
		v := &t.layout.rels[rel].cols[local]
		if s := (colShape{v.Kind, v.Nullable()}); s != t.shape[i] {
			t.shape[i], changed = s, true
		}
	}
	return changed
}

// build makes the term's one worker: per step an index-lookup stage, and a
// filter stage for the conjuncts it completes, into the group table or the
// gather of the view's outputs. Its stages and sink hold pooled scratch until
// the next build.
func (t *DeltaTerm) build() {
	if t.w != nil {
		t.w.release()
		if t.groups != nil {
			ridScratchPool.Put(t.groups.sc)
		}
	}
	var specs []ridStageSpec
	for i := range t.steps {
		st := &t.steps[i]
		st.probe.keys, st.probe.batch = newRidKeyCodec(keyModeBoxed, t.layout, st.tup), defaultBatchSize
		specs = append(specs, &st.probe)
		if st.resid != nil {
			specs = append(specs, newRidFilter(t.layout, st.resid))
		}
	}
	var sink ridSink
	if t.agg != nil {
		t.groups = newRidAggSink(t.agg, t.layout)
		sink = t.groups
	} else {
		t.rows = newGatherSink(gatherExprs(t.layout, t.proj), make([][]storage.Row, 1))
		t.rows.alloc = &t.alloc
		sink = t.rows
	}
	t.w = newRidWorker(specs, sink, &t.sc)
}
