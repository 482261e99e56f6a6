package exec

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// Delta terms: a view's change under one write, compiled once.
//
// A term is the view's query with some FROM instances of the changed table
// standing for Δ, the write's rows, and every other instance read as the
// table is now written (its head). It is compiled once per view set and run
// on every statement, inline, with its scratch — selection, wide row, group
// table, output rows — reset rather than reallocated. One Δ instance leads:
// its conjuncts run first as typed kernels over the Δ batch (the
// irrelevant-update test: a term no Δ row passes runs nothing), then each
// other instance joins in turn and is checked against the conjuncts it
// completes. A table instance is probed through the index the writer keeps
// on its join columns (Table.Locator); a further Δ instance through a hash
// of Δ the statement builds once. A first join of Δ to a relation is a node
// the statement computes once for every term that names the same one.

// DeltaTerm is one compiled delta term. Select, then Run, on one statement's
// DeltaInput; a term is not safe for concurrent use.
type DeltaTerm struct {
	lead     deltaLead // names the Δ selection it shares with its query's other terms
	leadOff  int       // Δ's offset in the wide row
	leadFill []int     // Δ columns the rest of the term reads
	filter   expr.Expr // Δ's own and constant conjuncts, in Δ's frame
	pred     atomic.Pointer[scanPred]
	steps    []deltaStep

	// The output: grouping keys and aggregates, or a projection.
	agg     bool
	groupBy []expr.Compiled
	aggs    []deltaAgg
	outs    []int // per output: key index, or ^agg index
	proj    []expr.Compiled

	// Scratch, kept across statements.
	src    scanSource
	sc     scanScratch
	sel    []int32 // the statement's selection for lead, which DeltaInput holds
	row    []sqlvalue.Value
	key    []byte
	groups map[string]int32
	keys   []sqlvalue.Value // ngroups × len(groupBy)
	states []aggState       // ngroups × len(aggs)
	out    []storage.Row
	slab   []sqlvalue.Value
}

// deltaStep joins one more FROM instance to the tuples built so far.
type deltaStep struct {
	pos     int    // the instance's FROM position
	name    string // the table the instance reads
	delta   bool   // the instance stands for Δ, not the table
	off     int    // its offset in the wide row
	tupCols []int  // wide-row columns of the probe key
	cols    []int  // the instance's columns they equal
	fill    []int  // the instance's columns the rest of the term reads
	resid   []expr.CompiledPredicate
	node    string // shared-node key of a first join on columns; "" otherwise
	build   string // key of Δ's hash by cols, for a Δ instance

	store *storage.ColumnStore // bound per statement
	idx   *storage.Index       // the table's, by cols; nil for Δ
}

type deltaAgg struct {
	kind spjg.AggKind
	arg  expr.Compiled // nil for COUNT_BIG(*)
}

// CompileDeltaTerm compiles q with Δ standing at the FROM positions at, the
// first of which leads. The other instances are read, per statement, as the
// DeltaInput's database holds their tables.
func CompileDeltaTerm(q *spjg.Query, at []int) (*DeltaTerm, error) {
	n, lead := len(q.Tables), at[0]
	offs := make([]int, n+1)
	for i, t := range q.Tables {
		offs[i+1] = offs[i] + len(t.Table.Columns)
	}
	flat := func(e expr.Expr) expr.Expr {
		return expr.MapColumns(e, func(c expr.ColRef) expr.ColRef { return expr.ColRef{Col: offs[c.Tab] + c.Col} })
	}
	t := &DeltaTerm{lead: deltaLead{q, lead}, leadOff: offs[lead], groups: map[string]int32{}}
	need := make([]bool, offs[n]) // wide-row columns read after Δ's filter
	mark := func(e expr.Expr) {
		for _, c := range expr.Columns(e) {
			need[c.Col] = true
		}
	}

	var conjuncts []expr.Expr
	if q.Where != nil {
		conjuncts = expr.ToCNF(q.Where)
	}
	used := make([]bool, len(conjuncts))
	var own []expr.Expr
	for ci, c := range conjuncts {
		tabs := expr.TablesUsed(c)
		if len(tabs) == 0 || len(tabs) == 1 && tabs[lead] {
			own = append(own, expr.MapColumns(c, func(r expr.ColRef) expr.ColRef { return expr.ColRef{Col: r.Col} }))
			used[ci] = true
		}
	}
	if len(own) > 0 {
		t.filter = expr.NewAnd(own...)
	}

	// Join order: Δ first, then repeatedly the first instance in FROM order
	// that an equality ties to the instances joined so far (a cross join
	// when none does).
	joined := make([]bool, n)
	joined[lead] = true
	equi := func(c expr.Expr, p int) (tup, col int, ok bool) {
		cmp, isCmp := c.(expr.Cmp)
		if !isCmp || cmp.Op != expr.EQ {
			return 0, 0, false
		}
		l, lok := cmp.L.(expr.Column)
		r, rok := cmp.R.(expr.Column)
		switch {
		case !lok || !rok:
			return 0, 0, false
		case r.Ref.Tab == p && l.Ref.Tab != p && joined[l.Ref.Tab]:
			return offs[l.Ref.Tab] + l.Ref.Col, r.Ref.Col, true
		case l.Ref.Tab == p && r.Ref.Tab != p && joined[r.Ref.Tab]:
			return offs[r.Ref.Tab] + r.Ref.Col, l.Ref.Col, true
		}
		return 0, 0, false
	}
	for range n - 1 {
		next := -1
		for p := 0; p < n && next < 0; p++ {
			if joined[p] {
				continue
			}
			for ci, c := range conjuncts {
				if _, _, ok := equi(c, p); ok && !used[ci] {
					next = p
					break
				}
			}
		}
		if next < 0 {
			next = slices.Index(joined, false)
		}
		st := deltaStep{pos: next, name: q.Tables[next].Table.Name, delta: slices.Contains(at, next), off: offs[next]}
		for ci, c := range conjuncts {
			if tup, col, ok := equi(c, next); ok && !used[ci] {
				st.tupCols = append(st.tupCols, tup)
				st.cols = append(st.cols, col)
				need[tup] = true
				used[ci] = true
			}
		}
		joined[next] = true
		for ci, c := range conjuncts {
			if used[ci] {
				continue
			}
			within := true
			for tab := range expr.TablesUsed(c) {
				within = within && joined[tab]
			}
			if within {
				fc := flat(c)
				mark(fc)
				st.resid = append(st.resid, expr.CompilePredicate(fc))
				used[ci] = true
			}
		}
		if len(t.steps) == 0 && len(st.cols) > 0 {
			st.node = nodeKey(st.delta, st.name, st.tupCols, t.leadOff, st.cols)
		}
		if st.delta {
			st.build = nodeKey(true, st.name, nil, 0, st.cols)
		}
		t.steps = append(t.steps, st)
	}

	if t.agg = q.IsAggregate(); t.agg {
		for _, g := range q.GroupBy {
			fg := flat(g)
			mark(fg)
			t.groupBy = append(t.groupBy, expr.Compile(fg))
		}
		for _, o := range q.Outputs {
			if o.Agg != nil {
				a := deltaAgg{kind: o.Agg.Kind}
				if o.Agg.Arg != nil {
					fa := flat(o.Agg.Arg)
					mark(fa)
					a.arg = expr.Compile(fa)
				}
				t.aggs = append(t.aggs, a)
				t.outs = append(t.outs, ^(len(t.aggs) - 1))
				continue
			}
			k := slices.IndexFunc(q.GroupBy, func(g expr.Expr) bool { return expr.Equal(expr.Normalize(o.Expr), expr.Normalize(g)) })
			if k < 0 {
				return nil, fmt.Errorf("exec: output %v not in GROUP BY", o.Expr)
			}
			t.outs = append(t.outs, k)
		}
	} else {
		for _, o := range q.Outputs {
			fo := flat(o.Expr)
			mark(fo)
			t.proj = append(t.proj, expr.Compile(fo))
		}
	}

	fill := func(p int) []int {
		var cols []int
		for c := range offs[p+1] - offs[p] {
			if need[offs[p]+c] {
				cols = append(cols, c)
			}
		}
		return cols
	}
	t.leadFill = fill(lead)
	for i := range t.steps {
		st := &t.steps[i]
		st.fill = fill(st.pos)
	}
	t.row = make([]sqlvalue.Value, offs[n])
	return t, nil
}

// nodeKey names a first join of Δ: what it probes (Δ, or the table by
// name), Δ's key columns and the probed relation's. Two terms with one key
// compute the same matches; a probe of Δ and one of the table never share.
func nodeKey(delta bool, name string, tupCols []int, leadOff int, cols []int) string {
	b := []byte{'t'}
	if delta {
		b[0] = 'd'
	}
	b = append(append(b, name...), 0)
	for _, c := range tupCols {
		b = strconv.AppendInt(append(b, ','), int64(c-leadOff), 10)
	}
	b = append(b, '=')
	for _, c := range cols {
		b = strconv.AppendInt(append(b, ','), int64(c), 10)
	}
	return string(b)
}

// DeltaInput is one statement's Δ and the database whose tables, as written,
// its terms read besides it. It holds the statement's shared Δ selections,
// join nodes and hashes of Δ; Bind starts the next statement.
type DeltaInput struct {
	delta  *storage.ColumnStore
	db     *storage.Database
	gen    uint64
	sels   map[deltaLead]*deltaSel
	nodes  map[string]*deltaNode
	builds map[string]*deltaBuild
}

// deltaLead names a term's Δ selection: its conjuncts on Δ alone are the
// query's on the lead instance, so the terms of one query that Δ leads at
// one FROM position (a self-join's S = {0} and S = {0, 1}) select alike.
type deltaLead struct {
	q   *spjg.Query
	pos int
}

// deltaSel is the Δ rows a lead's conjuncts keep.
type deltaSel struct {
	gen uint64
	sel []int32
}

// deltaNode is a first join of Δ computed for every Δ row: row j's matches
// are ords[starts[j]:starts[j+1]].
type deltaNode struct {
	gen    uint64
	starts []int32
	ords   []int
}

// deltaBuild hashes Δ's rows by key columns, for a join of a further Δ
// instance.
type deltaBuild struct {
	gen     uint64
	buckets map[string][]int
}

// NewDeltaInput returns an input with nothing bound.
func NewDeltaInput() *DeltaInput {
	return &DeltaInput{sels: map[deltaLead]*deltaSel{}, nodes: map[string]*deltaNode{}, builds: map[string]*deltaBuild{}}
}

// Bind makes delta, joined to db's tables as they are written, the input of
// the next statement's terms, dropping the last statement's nodes and builds.
func (in *DeltaInput) Bind(delta *storage.ColumnStore, db *storage.Database) {
	in.delta, in.db = delta, db
	in.gen++
}

// Select runs the term's conjuncts on Δ alone over the bound Δ batch, once
// per statement for every term with the same lead, and returns how many Δ
// rows pass: with none, the statement cannot change what the term adds up
// to and Run returns nothing.
func (t *DeltaTerm) Select(in *DeltaInput) (int, error) {
	s := in.sels[t.lead]
	if s == nil {
		s = &deltaSel{}
		in.sels[t.lead] = s
	}
	if s.gen != in.gen {
		t.sel = nil
		if err := t.src.bind(in.delta, t.filter, &t.pred); err != nil {
			return 0, err
		}
		sel, err := t.src.morselRids(0, in.delta.Len(), &t.sc, s.sel[:0])
		t.sc.stats.flush()
		if err != nil {
			return 0, err
		}
		s.gen, s.sel = in.gen, sel
	}
	t.sel = s.sel
	return len(t.sel), nil
}

// Run evaluates the term over the Δ rows the last Select kept and returns
// its rows: the delta's groups with their counts and sums in first-seen
// order, or its projected rows. The rows are the term's scratch, valid until
// its next Run.
func (t *DeltaTerm) Run(in *DeltaInput) ([]storage.Row, error) {
	t.out, t.slab = t.out[:0], t.slab[:0]
	t.keys, t.states = t.keys[:0], t.states[:0]
	clear(t.groups)
	if len(t.sel) == 0 {
		return nil, nil
	}
	for i := range t.steps {
		st := &t.steps[i]
		if st.delta {
			st.store = in.delta
			continue
		}
		tab := in.db.Table(st.name)
		if tab == nil {
			return nil, fmt.Errorf("exec: unknown table %q", st.name)
		}
		st.store, st.idx = tab.Store(), tab.Locator(st.cols)
	}
	defer t.sc.stats.flush()
	for _, j := range t.sel {
		for _, c := range t.leadFill {
			t.row[t.leadOff+c] = in.delta.Value(int(j), c)
		}
		if err := t.join(in, 0, int(j)); err != nil {
			return nil, err
		}
	}
	if t.agg {
		t.emitGroups()
	}
	return t.out, nil
}

// join extends the tuple in the wide row, built through step s-1 from Δ row
// j, by step s, and every completed tuple into the output.
func (t *DeltaTerm) join(in *DeltaInput, s, j int) error {
	if s == len(t.steps) {
		return t.emit()
	}
	st := &t.steps[s]
	var cands []int
	if st.node != "" && s == 0 {
		nd := in.node(st, t.leadOff, &t.sc.stats)
		cands = nd.ords[nd.starts[j]:nd.starts[j+1]]
	} else {
		var ok bool
		if t.key, ok = appendKey(t.key[:0], t.row, st.tupCols); !ok {
			return nil
		}
		cands = in.probe(st, t.key, &t.sc.stats)
	}
	store := st.store
candidates:
	for _, ord := range cands {
		for _, c := range st.fill {
			t.row[st.off+c] = store.Value(ord, c)
		}
		for _, p := range st.resid {
			ok, err := p(t.row)
			if err != nil {
				return err
			}
			if !ok {
				continue candidates
			}
		}
		if err := t.join(in, s+1, j); err != nil {
			return err
		}
	}
	return nil
}

// appendKey appends the index key of the values at cols (Row.AppendKey's
// layout); ok is false when one is NULL, which matches nothing.
func appendKey(dst []byte, row []sqlvalue.Value, cols []int) ([]byte, bool) {
	for _, c := range cols {
		if row[c].IsNull() {
			return dst, false
		}
		dst = append(row[c].AppendKey(dst), '\x1f')
	}
	return dst, true
}

// probe returns the live ordinals of st's relation whose key columns hold
// key: through the table's index, or through the hash of Δ the statement
// builds once.
func (in *DeltaInput) probe(st *deltaStep, key []byte, stats *ScanStats) []int {
	stats.RowsProbed++
	var ords []int
	if st.delta {
		ords = in.build(st, stats).buckets[string(key)]
	} else {
		ords = st.idx.ProbeKey(key)
	}
	if len(ords) > 0 {
		stats.RowsMatched++
	}
	return ords
}

// build hashes Δ by st.cols, once per statement, counting the blocks it
// reads.
func (in *DeltaInput) build(st *deltaStep, stats *ScanStats) *deltaBuild {
	b := in.builds[st.build]
	if b == nil {
		b = &deltaBuild{buckets: map[string][]int{}}
		in.builds[st.build] = b
	}
	if b.gen == in.gen {
		return b
	}
	b.gen = in.gen
	clear(b.buckets)
	stats.BlocksScanned += int64(in.delta.NumBlocks())
	var key []byte
rows:
	for ord := range in.delta.Len() {
		key = key[:0]
		for _, c := range st.cols {
			v := in.delta.Value(ord, c)
			if v.IsNull() {
				continue rows
			}
			key = append(v.AppendKey(key), '\x1f')
		}
		b.buckets[string(key)] = append(b.buckets[string(key)], ord)
	}
	return b
}

// node returns st's first join computed for every Δ row, once per statement
// for every term naming it.
func (in *DeltaInput) node(st *deltaStep, leadOff int, stats *ScanStats) *deltaNode {
	nd := in.nodes[st.node]
	if nd == nil {
		nd = &deltaNode{}
		in.nodes[st.node] = nd
	}
	if nd.gen == in.gen {
		return nd
	}
	nd.gen = in.gen
	nd.starts, nd.ords = append(nd.starts[:0], 0), nd.ords[:0]
	var key []byte
	for j := range in.delta.Len() {
		key = key[:0]
		ok := true
		for _, c := range st.tupCols {
			v := in.delta.Value(j, c-leadOff)
			if ok = !v.IsNull(); !ok {
				break
			}
			key = append(v.AppendKey(key), '\x1f')
		}
		if ok {
			nd.ords = append(nd.ords, in.probe(st, key, stats)...)
		}
		nd.starts = append(nd.starts, int32(len(nd.ords)))
	}
	return nd
}

// emit adds the completed tuple in the wide row to the output: to its group's
// count and sums, or as a projected row.
func (t *DeltaTerm) emit() error {
	if !t.agg {
		r := t.alloc(len(t.proj))
		for i, p := range t.proj {
			v, err := p(t.row)
			if err != nil {
				return err
			}
			r[i] = v
		}
		t.out = append(t.out, r)
		return nil
	}
	t.key = t.key[:0]
	start := len(t.keys)
	for _, g := range t.groupBy {
		v, err := g(t.row)
		if err != nil {
			t.keys = t.keys[:start]
			return err
		}
		t.keys = append(t.keys, v)
		t.key = append(v.AppendKey(t.key), '\x1f')
	}
	id, ok := t.groups[string(t.key)]
	if ok {
		t.keys = t.keys[:start]
	} else {
		id = int32(len(t.groups))
		t.groups[string(t.key)] = id
		for range t.aggs {
			t.states = append(t.states, aggState{})
		}
	}
	for a := range t.aggs {
		st := &t.states[int(id)*len(t.aggs)+a]
		st.count++
		if t.aggs[a].arg == nil {
			continue
		}
		v, err := t.aggs[a].arg(t.row)
		if err != nil {
			return err
		}
		if err := st.accumulate(v); err != nil {
			return err
		}
	}
	return nil
}

// emitGroups turns the group table into output rows in first-seen order.
func (t *DeltaTerm) emitGroups() {
	nk, na := len(t.groupBy), len(t.aggs)
	for g := range len(t.groups) {
		r := t.alloc(len(t.outs))
		for i, o := range t.outs {
			if o >= 0 {
				r[i] = t.keys[g*nk+o]
			} else {
				r[i] = t.states[g*na+^o].result(t.aggs[^o].kind)
			}
		}
		t.out = append(t.out, r)
	}
}

// alloc carves a w-wide output row from the term's slab, which grows and is
// reused across statements.
func (t *DeltaTerm) alloc(w int) storage.Row {
	if len(t.slab)+w > cap(t.slab) {
		// Rows already handed out keep the old slab.
		t.slab = make([]sqlvalue.Value, 0, max(2*cap(t.slab), 16*w))
	}
	t.slab = t.slab[:len(t.slab)+w]
	return storage.Row(t.slab[len(t.slab)-w : len(t.slab) : len(t.slab)])
}
