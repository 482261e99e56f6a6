package exec

import (
	"fmt"
	"math"
	"sync"

	"matview/internal/expr"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// Late-materialization join pipelines.
//
// A hash join over columnar scans never materializes its inputs as rows.
// Scan leaves emit selection vectors (row ordinals that survived the fused
// predicate); the build side reads typed keys straight out of column arrays
// and stores rid tuples, not rows (joinkey.go); the probe stage matches
// batch-at-a-time and extends the tuple with the build side's rids; and a
// single gather stage at the top of the pipeline boxes only the columns the
// plan above actually references, only for tuples that survived every probe
// and filter. An N-way left-deep join therefore carries (rid, rid, ...)
// tuples through every intermediate join and touches payload columns exactly
// once, at the end.
//
// Output stays byte-identical to RunReference: the rid pipeline visits
// qualifying rows in the same order as the row pipeline it replaces, the
// build table keeps per-key entries in build-input order (it is filled in
// morsel order, whichever worker ran which morsel), NULL keys never match on
// either side, and residual/filter predicates are evaluated
// over scratch rows populated with the same boxed values — and in the same
// sequence — the row-at-a-time stages would have produced.

// maxRid bounds a relation addressable by int32 row ids; larger relations
// fall back to the row-at-a-time join path.
const maxRid = math.MaxInt32

// ---------------------------------------------------------------------------
// Relations, layouts, batches

// joinRel is one payload relation carried through a rid pipeline: either a
// columnar store (scan leaves — values stay in column arrays until gather) or
// an already-materialized row slice (view seeks, aggregation outputs, and
// other subtrees with no rid form).
type joinRel struct {
	store *storage.ColumnStore
	cols  []storage.ColView
	rows  []storage.Row
	width int
}

func storeRel(store *storage.ColumnStore, cols []storage.ColView) *joinRel {
	return &joinRel{store: store, cols: cols, width: len(cols)}
}

func rowsRel(rows []storage.Row, width int) *joinRel {
	return &joinRel{rows: rows, width: width}
}

// emitter returns the boxed-value reader for one local column.
func (r *joinRel) emitter(c int) colEmitter {
	if r.store != nil {
		return makeEmitter(r.cols[c])
	}
	rows := r.rows
	return func(i int) sqlvalue.Value { return rows[i][c] }
}

// ridLayout is the flat schema of a rid pipeline: the concatenation of its
// relations' columns, with prefix sums to map a flat column to its relation.
type ridLayout struct {
	rels []*joinRel
	offs []int // offs[i] = first flat column of rels[i]; offs[len] = width
}

func singleLayout(r *joinRel) *ridLayout {
	return &ridLayout{rels: []*joinRel{r}, offs: []int{0, r.width}}
}

func concatLayouts(a, b *ridLayout) *ridLayout {
	l := &ridLayout{rels: append(append([]*joinRel{}, a.rels...), b.rels...)}
	l.offs = make([]int, 1, len(l.rels)+1)
	for _, r := range l.rels {
		l.offs = append(l.offs, l.offs[len(l.offs)-1]+r.width)
	}
	return l
}

func (l *ridLayout) width() int { return l.offs[len(l.offs)-1] }
func (l *ridLayout) arity() int { return len(l.rels) }

// locate maps a flat column to (relation index, local column).
func (l *ridLayout) locate(c int) (rel, local int) {
	for r := 1; r < len(l.offs); r++ {
		if c < l.offs[r] {
			return r - 1, c - l.offs[r-1]
		}
	}
	return len(l.rels) - 1, c - l.offs[len(l.rels)-1]
}

// ridBatch is a batch of row-id tuples in struct-of-arrays form: sel[r][k] is
// the row ordinal of tuple k in relation r. The batch (and its selection
// vectors) is only valid during the pushRids call that delivers it.
type ridBatch struct {
	n   int
	sel [][]int32
}

// ridPusher consumes one batch of rid tuples.
type ridPusher interface {
	pushRids(b *ridBatch) error
}

// ridStageSpec makes per-worker rid stage instances (probe, filter).
type ridStageSpec interface {
	makeRid(next ridPusher, stats *ScanStats) ridPusher
}

// ridSource heads a rid pipeline: scan leaves yield the ordinals surviving
// their fused predicate; row-backed relations yield every ordinal.
type ridSource interface {
	numRows() int
	morselRids(lo, hi int, sc *scanScratch, out []int32) ([]int32, error)
}

type rowsRidSource []storage.Row

func (s rowsRidSource) numRows() int { return len(s) }

func (s rowsRidSource) morselRids(lo, hi int, _ *scanScratch, out []int32) ([]int32, error) {
	for i := lo; i < hi; i++ {
		out = append(out, int32(i))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Pooled per-stage scratch

// ridScratch is the per-stage scratch of a rid pipeline: selection-vector
// buffers, a wide row for predicate evaluation, gathered row headers, and a
// key buffer. Instances are pooled across pipeline runs so steady-state
// allocations stay flat as worker count grows: each worker's stages borrow
// scratch for one run and return it when the pipeline finishes.
type ridScratch struct {
	vecs  [][]int32
	row   storage.Row
	heads []storage.Row
	key   keyList
	ids   []int32
}

var ridScratchPool = sync.Pool{New: func() any { return new(ridScratch) }}

// selVecs returns n reusable selection vectors. The returned slice aliases
// the scratch, so appends that grow a vector persist across runs.
func (s *ridScratch) selVecs(n int) [][]int32 {
	for len(s.vecs) < n {
		s.vecs = append(s.vecs, nil)
	}
	return s.vecs[:n]
}

func (s *ridScratch) wideRow(w int) storage.Row {
	if cap(s.row) < w {
		s.row = make(storage.Row, w)
	}
	return s.row[:w]
}

func (s *ridScratch) rowHeads(n int) []storage.Row {
	if cap(s.heads) < n {
		s.heads = make([]storage.Row, n)
	}
	return s.heads[:n]
}

// releaser is implemented by stages holding pooled scratch; pipeline drivers
// release every stage after the run completes (no worker references remain).
type releaser interface{ release() }

// ---------------------------------------------------------------------------
// Expression binding over rid tuples

// ridEval binds compiled row expressions to rid tuples: fill copies only the
// referenced flat columns into a scratch row of the layout's full width,
// leaving every other slot untouched (compiled expressions never read them).
type ridEval struct {
	width int
	cols  []ridEvalCol
}

type ridEvalCol struct {
	slot int
	rel  int
	em   colEmitter
}

func newRidEval(layout *ridLayout, exprs ...expr.Expr) ridEval {
	ev := ridEval{width: layout.width()}
	seen := make(map[int]bool)
	for _, ex := range exprs {
		for _, ref := range expr.Columns(ex) {
			c := ref.Col
			if ref.Tab != 0 || c < 0 || c >= ev.width || seen[c] {
				continue // compiled Column binds out-of-range refs to NULL
			}
			seen[c] = true
			rel, local := layout.locate(c)
			ev.cols = append(ev.cols, ridEvalCol{slot: c, rel: rel, em: layout.rels[rel].emitter(local)})
		}
	}
	return ev
}

func (ev *ridEval) fill(row storage.Row, in *ridBatch, k int) {
	for i := range ev.cols {
		c := &ev.cols[i]
		row[c.slot] = c.em(int(in.sel[c.rel][k]))
	}
}

// fillJoin fills the row for a candidate join tuple: the first ba relations
// come from the build entry's rids, the rest from probe tuple k.
func (ev *ridEval) fillJoin(row storage.Row, ent []int32, in *ridBatch, k, ba int) {
	for i := range ev.cols {
		c := &ev.cols[i]
		if c.rel < ba {
			row[c.slot] = c.em(int(ent[c.rel]))
		} else {
			row[c.slot] = c.em(int(in.sel[c.rel-ba][k]))
		}
	}
}

// ---------------------------------------------------------------------------
// Rid filter stage

type ridFilterSpec struct {
	pred expr.CompiledPredicate
	eval ridEval
}

func (s *ridFilterSpec) makeRid(next ridPusher, _ *ScanStats) ridPusher {
	return &ridFilterStage{spec: s, next: next, sc: ridScratchPool.Get().(*ridScratch)}
}

type ridFilterStage struct {
	spec *ridFilterSpec
	next ridPusher
	sc   *ridScratch
	out  ridBatch
}

func (f *ridFilterStage) release() {
	if f.sc != nil {
		ridScratchPool.Put(f.sc)
		f.sc = nil
	}
}

func (f *ridFilterStage) pushRids(in *ridBatch) error {
	arity := len(in.sel)
	out := &f.out
	out.sel = f.sc.selVecs(arity)
	for r := range out.sel {
		out.sel[r] = out.sel[r][:0]
	}
	out.n = 0
	row := f.sc.wideRow(f.spec.eval.width)
	for k := 0; k < in.n; k++ {
		f.spec.eval.fill(row, in, k)
		ok, err := f.spec.pred(row)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		for r := 0; r < arity; r++ {
			out.sel[r] = append(out.sel[r], in.sel[r][k])
		}
		out.n++
	}
	if out.n == 0 {
		return nil
	}
	return f.next.pushRids(out)
}

// ---------------------------------------------------------------------------
// Gather stage: the rid → row boundary

// gatherOut materializes one output slot of the gather stage. Store-backed
// columns go through ColView.Gather (one typed dispatch per batch);
// row-backed relations and constants use a boxed emitter.
type gatherOut struct {
	slot int
	rel  int // -1 for constants
	view *storage.ColView
	em   colEmitter
}

type gatherSpec struct {
	width int
	outs  []gatherOut
}

func gatherColOut(layout *ridLayout, flat, slot int) gatherOut {
	rel, local := layout.locate(flat)
	r := layout.rels[rel]
	if r.store != nil {
		return gatherOut{slot: slot, rel: rel, view: &r.cols[local]}
	}
	return gatherOut{slot: slot, rel: rel, em: r.emitter(local)}
}

func defaultGather(layout *ridLayout) *gatherSpec {
	w := layout.width()
	g := &gatherSpec{width: w, outs: make([]gatherOut, 0, w)}
	for c := 0; c < w; c++ {
		g.outs = append(g.outs, gatherColOut(layout, c, c))
	}
	return g
}

type gatherStage struct {
	spec  *gatherSpec
	next  pusher
	sc    *ridScratch
	stats *ScanStats
}

func newGatherStage(spec *gatherSpec, next pusher, stats *ScanStats) *gatherStage {
	return &gatherStage{spec: spec, next: next, sc: ridScratchPool.Get().(*ridScratch), stats: stats}
}

func (g *gatherStage) release() {
	if g.sc != nil {
		ridScratchPool.Put(g.sc)
		g.sc = nil
	}
}

func (g *gatherStage) pushRids(in *ridBatch) error {
	n := in.n
	w := g.spec.width
	heads := g.sc.rowHeads(n)
	// One durable slab per batch: emitted rows outlive the pipeline. Unfilled
	// slots stay at the zero Value, which is NULL.
	slab := make([]sqlvalue.Value, n*w)
	for k := 0; k < n; k++ {
		heads[k] = storage.Row(slab[k*w : (k+1)*w : (k+1)*w])
	}
	for i := range g.spec.outs {
		o := &g.spec.outs[i]
		switch {
		case o.view != nil:
			o.view.Gather(in.sel[o.rel], slab, o.slot, w)
		case o.rel < 0:
			v := o.em(0)
			for k := 0; k < n; k++ {
				slab[k*w+o.slot] = v
			}
		default:
			sel := in.sel[o.rel]
			em := o.em
			for k := 0; k < n; k++ {
				slab[k*w+o.slot] = em(int(sel[k]))
			}
		}
	}
	g.stats.RowsGathered += int64(n)
	return g.next.push(heads)
}

// ---------------------------------------------------------------------------
// ridRowSource: bridging a rid pipeline into the row-pipeline machinery

// ridRowSource adapts a rid pipeline to the rowSource contract so every
// existing sink (collector, build, aggregation) and row stage composes over
// it unchanged: each morsel pulls a selection vector from the rid source,
// streams it through the probe/filter stages, and gathers surviving tuples
// into rows. Projections of columns/constants fuse into the gather; filters
// become rid stages; aggregations bypass the gather entirely (group.go).
type ridRowSource struct {
	e      *Engine
	src    ridSource
	layout *ridLayout
	stages []ridStageSpec
	gather *gatherSpec

	projected bool
}

func (s *ridRowSource) numRows() int { return s.src.numRows() }

func (s *ridRowSource) gatherSpec() *gatherSpec {
	if s.gather == nil {
		s.gather = defaultGather(s.layout)
	}
	return s.gather
}

// addFilter appends a rid-level filter: the predicate is evaluated over a
// scratch row holding only its referenced columns, before any gather.
func (s *ridRowSource) addFilter(pred expr.Expr) {
	s.stages = append(s.stages, &ridFilterSpec{
		pred: expr.CompilePredicate(pred),
		eval: newRidEval(s.layout, pred),
	})
}

// setProjection fuses a column/constant projection into the gather stage:
// output rows are emitted at projection width and only projected columns are
// ever materialized.
func (s *ridRowSource) setProjection(exprs []expr.Expr) {
	g := &gatherSpec{width: len(exprs)}
	for j, ex := range exprs {
		switch n := ex.(type) {
		case expr.Column:
			if n.Ref.Tab != 0 || n.Ref.Col < 0 || n.Ref.Col >= s.layout.width() {
				g.outs = append(g.outs, gatherOut{slot: j, rel: -1, em: nullEmitter})
				continue
			}
			g.outs = append(g.outs, gatherColOut(s.layout, n.Ref.Col, j))
		case expr.Const:
			v := n.Val
			g.outs = append(g.outs, gatherOut{slot: j, rel: -1, em: func(int) sqlvalue.Value { return v }})
		}
	}
	s.gather = g
	s.projected = true
}

// narrowTo restricts the gather to the flat columns referenced by exprs,
// keeping output width: unreferenced slots stay NULL and the compiled
// expressions above never read them.
func (s *ridRowSource) narrowTo(exprs []expr.Expr) {
	w := s.layout.width()
	g := &gatherSpec{width: w}
	seen := make(map[int]bool)
	for _, ex := range exprs {
		for _, ref := range expr.Columns(ex) {
			c := ref.Col
			if ref.Tab != 0 || c < 0 || c >= w || seen[c] {
				continue
			}
			seen[c] = true
			g.outs = append(g.outs, gatherColOut(s.layout, c, c))
		}
	}
	s.gather = g
}

// ridWorker is one row-pipeline worker's instantiated rid chain, hung off
// its scanScratch and released when the enclosing pipeline finishes.
type ridWorker struct {
	chain ridPusher
	cap   rowCapture
	rel   []releaser
}

// rowCapture terminates the bridge: gathered rows accumulate per morsel.
type rowCapture struct {
	out []storage.Row
}

func (c *rowCapture) push(in []storage.Row) error {
	c.out = append(c.out, in...)
	return nil
}

func (w *ridWorker) release() {
	for _, r := range w.rel {
		r.release()
	}
	w.rel = nil
}

func (s *ridRowSource) morsel(lo, hi int, sc *scanScratch) ([]storage.Row, error) {
	w := sc.rid
	if w == nil {
		w = &ridWorker{}
		g := newGatherStage(s.gatherSpec(), &w.cap, &sc.stats)
		w.rel = append(w.rel, g)
		var p ridPusher = g
		for i := len(s.stages) - 1; i >= 0; i-- {
			p = s.stages[i].makeRid(p, &sc.stats)
			if r, ok := p.(releaser); ok {
				w.rel = append(w.rel, r)
			}
		}
		w.chain = p
		sc.rid = w
	}
	w.cap.out = w.cap.out[:0]
	rids, err := s.src.morselRids(lo, hi, sc, sc.rids[:0])
	sc.rids = rids
	if err != nil {
		return nil, err
	}
	if len(rids) > 0 {
		if err := w.chain.pushRids(sc.ridBatch(rids)); err != nil {
			return nil, err
		}
	}
	return w.cap.out, nil
}

// ---------------------------------------------------------------------------
// Rid pipeline driver

// ridMorselSink terminates a worker's rid stage chain (build sinks,
// aggregation sinks). begin mirrors morselSink.begin.
type ridMorselSink interface {
	ridPusher
	begin(seq int)
}

// runRidPipeline streams a rid source through per-worker stage chains into
// per-worker sinks, with the same morsel distribution (and therefore the
// same ordinal structure) as runPipeline.
func (e *Engine) runRidPipeline(src ridSource, stages []ridStageSpec, mkSink func(numMorsels int) ridMorselSink) ([]ridMorselSink, error) {
	bs := e.batchSize()
	n := src.numRows()
	nm := (n + bs - 1) / bs
	w := e.workers()
	if w > nm {
		w = nm
	}
	if w < 1 {
		w = 1
	}
	sinks := make([]ridMorselSink, w)
	chains := make([]ridPusher, w)
	scratch := make([]scanScratch, w)
	var rel []releaser
	for i := range sinks {
		sinks[i] = mkSink(nm)
		if r, ok := sinks[i].(releaser); ok {
			rel = append(rel, r)
		}
		var p ridPusher = sinks[i]
		for s := len(stages) - 1; s >= 0; s-- {
			p = stages[s].makeRid(p, &scratch[i].stats)
			if r, ok := p.(releaser); ok {
				rel = append(rel, r)
			}
		}
		chains[i] = p
	}
	err := forEachMorsel(nm, w, func(wi, seq int) error {
		lo := seq * bs
		hi := min(lo+bs, n)
		sinks[wi].begin(seq)
		sc := &scratch[wi]
		defer sc.stats.flush()
		rids, err := src.morselRids(lo, hi, sc, sc.rids[:0])
		sc.rids = rids
		if err != nil {
			return err
		}
		if len(rids) == 0 {
			return nil
		}
		return chains[wi].pushRids(sc.ridBatch(rids))
	})
	for _, r := range rel {
		r.release()
	}
	if err != nil {
		return nil, err
	}
	return sinks, nil
}

// ---------------------------------------------------------------------------
// Plan decomposition into rid pipelines

// streamRids decomposes a subtree into a rid pipeline: a rid source, the
// layout of the relations its tuples address, and the probe/filter stages to
// stream them through. Subtrees with no rid form report ok=false and the
// caller materializes them as a row-backed relation; only relations larger
// than the rid address space make the whole decomposition fail (the caller
// then falls back to the row-at-a-time join path).
func (e *Engine) streamRids(db storage.Reader, n Node) (ridSource, *ridLayout, []ridStageSpec, bool, error) {
	switch t := n.(type) {
	case *TableScan:
		tb := db.TableData(t.Table)
		if tb == nil {
			return nil, nil, nil, false, fmt.Errorf("exec: unknown table %q", t.Table)
		}
		st := tb.Store()
		if st.Len() > maxRid {
			return nil, nil, nil, false, nil
		}
		ss := newScanSource(st, t.Filter, e)
		return ss, singleLayout(storeRel(st, ss.cols)), nil, true, nil
	case *ViewScan:
		v := db.ViewData(t.View)
		if v == nil {
			return nil, nil, nil, false, fmt.Errorf("exec: view %q not materialized", t.View)
		}
		if len(t.EqCols) > 0 {
			rows := seekView(v, t.EqCols, t.EqVals, nil)
			if len(rows) > maxRid {
				return nil, nil, nil, false, nil
			}
			layout := singleLayout(rowsRel(rows, t.NCols))
			var stages []ridStageSpec
			if t.Filter != nil {
				stages = append(stages, &ridFilterSpec{
					pred: expr.CompilePredicate(t.Filter),
					eval: newRidEval(layout, t.Filter),
				})
			}
			return rowsRidSource(rows), layout, stages, true, nil
		}
		st := v.Store()
		if st.Len() > maxRid {
			return nil, nil, nil, false, nil
		}
		ss := newScanSource(st, t.Filter, e)
		return ss, singleLayout(storeRel(st, ss.cols)), nil, true, nil
	case *Filter:
		src, layout, stages, ok, err := e.streamRids(db, t.In)
		if err != nil || !ok {
			return nil, nil, nil, false, err
		}
		spec := &ridFilterSpec{pred: expr.CompilePredicate(t.Pred), eval: newRidEval(layout, t.Pred)}
		return src, layout, append(stages, spec), true, nil
	case *HashJoin:
		// Build side first — fully executed before the probe side starts,
		// exactly like buildJoin and the reference evaluator.
		build, bLayout, ok, err := e.buildRidJoin(db, t)
		if err != nil || !ok {
			return nil, nil, nil, false, err
		}
		psrc, pLayout, pstages, ok, err := e.streamRids(db, t.R)
		if err != nil {
			return nil, nil, nil, false, err
		}
		if !ok {
			rows, err := e.materialize(db, t.R)
			if err != nil {
				return nil, nil, nil, false, err
			}
			if len(rows) > maxRid {
				return nil, nil, nil, false, nil
			}
			pLayout = singleLayout(rowsRel(rows, t.R.Width()))
			psrc, pstages = rowsRidSource(rows), nil
		}
		layout := concatLayouts(bLayout, pLayout)
		spec := &ridProbeSpec{
			build:    build,
			keys:     newRidKeyCodec(build.mode, pLayout, t.RCols),
			outArity: layout.arity(),
			batch:    e.batchSize(),
		}
		if t.Residual != nil {
			spec.residual = expr.CompilePredicate(t.Residual)
			spec.resEval = newRidEval(layout, t.Residual)
		}
		return psrc, layout, append(pstages, spec), true, nil
	default:
		return nil, nil, nil, false, nil
	}
}
