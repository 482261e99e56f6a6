package exec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"matview/internal/expr"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// The pipeline: rid tuples from a source, through stages, into a sink.
//
// No operator passes rows to another. A source yields selection vectors —
// the ordinals of one relation that survived a scan's fused predicate, or
// every ordinal of a relation that is already rows; a stage (filter, hash-join
// probe, nested loop) drops tuples or extends them with another relation's
// rids; a sink ends the pipeline: a join build stores the tuples under their
// keys (joinkey.go), an aggregation folds them into groups (group.go), and
// the gather boxes what the plan above reads of the tuples that survived
// every stage. An N-way join therefore carries (rid, rid, ...) tuples through
// every intermediate join and touches payload columns once, at the end.
//
// Output is byte-identical to RunReference: tuples are visited in the order
// its nested loops visit rows, the build table keeps per-key entries in
// build-input order (it is filled in morsel order, whichever worker ran which
// morsel), NULL keys never match on either side, and residual, filter and
// projection expressions are evaluated over scratch rows populated with the
// boxed values — and in the sequence — the reference evaluates them in.

// maxRid bounds a relation addressable by int32 row ids.
const maxRid = math.MaxInt32

// ErrRelationTooLarge reports a table, view or intermediate result with more
// rows than a row id can address.
var ErrRelationTooLarge = errors.New("exec: relation has more rows than a row id can address")

// checkRid is called wherever a relation of n rows enters a layout.
func checkRid(n int) error {
	if n > maxRid {
		return fmt.Errorf("%w (%d > %d)", ErrRelationTooLarge, n, maxRid)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Relations, layouts, batches

// joinRel is one payload relation a pipeline's tuples address: either a
// columnar store (scan leaves — values stay in column arrays until gather) or
// an already-materialized row slice (view seeks, aggregation and projection
// outputs, the inner side of a nested loop).
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

// ridLayout is the flat schema of a pipeline: the concatenation of its
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

// ridSource heads a pipeline: scan leaves yield the ordinals surviving their
// fused predicate; row-backed relations yield every ordinal.
type ridSource interface {
	numRows() int
	morselRids(lo, hi int, sc *scanScratch, out []int32) ([]int32, error)
}

// ridStageSpec holds the shared, read-only state of one stage (compiled
// expressions, a finished build table) and makes the per-worker instances
// that own all mutable scratch.
type ridStageSpec interface {
	makeRid(next ridPusher, stats *ScanStats) ridStage
}

// ridStage is one worker's instance of a stage; the driver releases its
// pooled scratch after the run, when no worker holds a reference.
type ridStage interface {
	ridPusher
	release()
}

// ridSink terminates a worker's stage chain. begin is called before each
// morsel with the morsel's global sequence number, which sinks use to keep
// output deterministic (gather buckets, build-input order, first-seen groups).
type ridSink interface {
	ridPusher
	begin(seq int)
}

// rowsRidSource heads a pipeline over a relation that is already rows: a view
// seek, an aggregation's output, any materialised subtree.
type rowsRidSource []storage.Row

func (s rowsRidSource) numRows() int { return len(s) }

func (s rowsRidSource) morselRids(lo, hi int, _ *scanScratch, out []int32) ([]int32, error) {
	return appendRun(out, lo, hi), nil
}

// ---------------------------------------------------------------------------
// Pooled per-stage scratch

// ridScratch is the per-stage scratch of a pipeline: selection-vector
// buffers, a wide row for predicate evaluation, and a key buffer. Instances
// are pooled across pipeline runs so steady-state allocations stay flat as
// worker count grows: each worker's stages borrow scratch for one run and
// return it when the pipeline finishes.
type ridScratch struct {
	vecs [][]int32
	row  storage.Row
	key  keyList
	ids  []int32
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

// ridOut is the output side of a stage: the tuples it passes on accumulate in
// out, over pooled selection vectors, and go to next a batch at a time.
type ridOut struct {
	next ridPusher
	sc   *ridScratch
	out  ridBatch
}

func newRidOut(next ridPusher) ridOut {
	return ridOut{next: next, sc: ridScratchPool.Get().(*ridScratch)}
}

func (o *ridOut) release() {
	if o.sc != nil {
		ridScratchPool.Put(o.sc)
		o.sc = nil
	}
}

// clear empties out and gives it arity selection vectors.
func (o *ridOut) clear(arity int) {
	o.out.sel = o.sc.selVecs(arity)
	for r := range o.out.sel {
		o.out.sel[r] = o.out.sel[r][:0]
	}
	o.out.n = 0
}

// flush hands out, if it holds anything, to the next stage and empties it.
func (o *ridOut) flush() error {
	if o.out.n == 0 {
		return nil
	}
	err := o.next.pushRids(&o.out)
	o.clear(len(o.out.sel))
	return err
}

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
// come from ent, a tuple of ba rids, the rest from tuple k of in.
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
// Filter stage

type ridFilterSpec struct {
	pred expr.CompiledPredicate
	eval ridEval
}

func newRidFilter(layout *ridLayout, pred expr.Expr) *ridFilterSpec {
	return &ridFilterSpec{pred: expr.CompilePredicate(pred), eval: newRidEval(layout, pred)}
}

func (s *ridFilterSpec) makeRid(next ridPusher, _ *ScanStats) ridStage {
	return &ridFilterStage{spec: s, ridOut: newRidOut(next)}
}

type ridFilterStage struct {
	spec *ridFilterSpec
	ridOut
}

func (f *ridFilterStage) pushRids(in *ridBatch) error {
	arity := len(in.sel)
	f.clear(arity)
	out := &f.out
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
	return f.flush()
}

// ---------------------------------------------------------------------------
// Nested-loop stage

// ridLoopSpec is a nested-loop join: the inner side, materialised once and
// shared read-only by all workers, is the last relation of the stage's output
// layout, and every outer tuple meets its rows in order — output is
// outer-major in inner order, as the reference evaluator's.
type ridLoopSpec struct {
	inner int                    // rows of the inner relation
	pred  expr.CompiledPredicate // over the joined tuple; nil for a cross join
	eval  ridEval
	batch int
}

func (s *ridLoopSpec) makeRid(next ridPusher, _ *ScanStats) ridStage {
	return &ridLoopStage{spec: s, ridOut: newRidOut(next)}
}

type ridLoopStage struct {
	spec *ridLoopSpec
	ridOut
	ent []int32 // the candidate tuple: the outer tuple's rids, then the inner rid
}

func (l *ridLoopStage) pushRids(in *ridBatch) error {
	s := l.spec
	oa := len(in.sel)
	l.clear(oa + 1)
	out := &l.out
	var row storage.Row
	if s.pred != nil {
		row = l.sc.wideRow(s.eval.width)
	}
	if l.ent == nil {
		l.ent = make([]int32, oa+1)
	}
	ent := l.ent
	for k := 0; k < in.n; k++ {
		for r := 0; r < oa; r++ {
			ent[r] = in.sel[r][k]
		}
		for i := 0; i < s.inner; i++ {
			ent[oa] = int32(i)
			if s.pred != nil {
				s.eval.fillJoin(row, ent, nil, 0, len(ent)) // every relation from ent
				pass, err := s.pred(row)
				if err != nil {
					return err
				}
				if !pass {
					continue
				}
			}
			for r, rid := range ent {
				out.sel[r] = append(out.sel[r], rid)
			}
			out.n++
			if out.n >= s.batch {
				if err := l.flush(); err != nil {
					return err
				}
			}
		}
	}
	return l.flush()
}

// ---------------------------------------------------------------------------
// Gather sink: the rid → row boundary

// gatherOut materializes one column or constant output slot. Store-backed
// columns go through ColView.Gather (one typed dispatch per batch);
// row-backed relations use a boxed emitter.
type gatherOut struct {
	slot int
	rel  int // -1 for constants
	view *storage.ColView
	em   colEmitter
	val  sqlvalue.Value
}

// gatherSpec is what the gather emits per tuple: width slots, of which outs
// are columns and constants, exprs are compiled expressions over a scratch
// row that eval fills, and the rest — references no relation binds — stay
// NULL.
type gatherSpec struct {
	width  int
	outs   []gatherOut
	exprs  []gatherExpr
	eval   ridEval
	stored bool // some relation is a column store: emitted rows count as gathered
}

type gatherExpr struct {
	slot int
	fn   expr.Compiled
}

func newGatherSpec(layout *ridLayout, width int) *gatherSpec {
	g := &gatherSpec{width: width, outs: make([]gatherOut, 0, width)}
	for _, r := range layout.rels {
		g.stored = g.stored || r.store != nil
	}
	return g
}

func (g *gatherSpec) addCol(layout *ridLayout, flat, slot int) {
	rel, local := layout.locate(flat)
	r := layout.rels[rel]
	if r.store != nil {
		g.outs = append(g.outs, gatherOut{slot: slot, rel: rel, view: &r.cols[local]})
	} else {
		g.outs = append(g.outs, gatherOut{slot: slot, rel: rel, em: r.emitter(local)})
	}
}

// gatherColumns emits every column of the layout.
func gatherColumns(layout *ridLayout) *gatherSpec {
	g := newGatherSpec(layout, layout.width())
	for c := 0; c < g.width; c++ {
		g.addCol(layout, c, c)
	}
	return g
}

// gatherExprs emits a projection: only the columns it reads are ever boxed.
func gatherExprs(layout *ridLayout, exprs []expr.Expr) *gatherSpec {
	g := newGatherSpec(layout, len(exprs))
	var computed []expr.Expr
	for j, ex := range exprs {
		switch n := ex.(type) {
		case expr.Column:
			if n.Ref.Tab == 0 && n.Ref.Col >= 0 && n.Ref.Col < layout.width() { // else unbound: NULL, as compiled
				g.addCol(layout, n.Ref.Col, j)
			}
		case expr.Const:
			g.outs = append(g.outs, gatherOut{slot: j, rel: -1, val: n.Val})
		default:
			g.exprs = append(g.exprs, gatherExpr{slot: j, fn: expr.Compile(ex)})
			computed = append(computed, ex)
		}
	}
	if computed != nil {
		g.eval = newRidEval(layout, computed...)
	}
	return g
}

// gatherSink collects a pipeline's output as rows, bucketed by morsel
// sequence number so that concatenating the buckets reproduces the serial
// (reference) order. A bucket is written only by the worker that owns the
// morsel.
type gatherSink struct {
	spec    *gatherSpec
	buckets [][]storage.Row
	cur     int
	row     storage.Row // what spec.exprs are evaluated over
}

func newGatherSink(spec *gatherSpec, buckets [][]storage.Row) *gatherSink {
	g := &gatherSink{spec: spec, buckets: buckets}
	if len(spec.exprs) > 0 {
		g.row = make(storage.Row, spec.eval.width)
	}
	return g
}

func (g *gatherSink) begin(seq int) { g.cur = seq }

func (g *gatherSink) pushRids(in *ridBatch) error {
	n, w := in.n, g.spec.width
	// One durable slab per batch: emitted rows outlive the pipeline. Unfilled
	// slots stay at the zero Value, which is NULL.
	slab := make([]sqlvalue.Value, n*w)
	for i := range g.spec.outs {
		o := &g.spec.outs[i]
		switch {
		case o.view != nil:
			o.view.Gather(in.sel[o.rel], slab, o.slot, w)
		case o.rel < 0:
			for k := 0; k < n; k++ {
				slab[k*w+o.slot] = o.val
			}
		default:
			sel := in.sel[o.rel]
			em := o.em
			for k := 0; k < n; k++ {
				slab[k*w+o.slot] = em(int(sel[k]))
			}
		}
	}
	if len(g.spec.exprs) > 0 {
		// Tuple by tuple, expression by expression: the reference's order, so
		// the first error or panic is the one it would raise.
		for k := 0; k < n; k++ {
			g.spec.eval.fill(g.row, in, k)
			for _, ex := range g.spec.exprs {
				v, err := ex.fn(g.row)
				if err != nil {
					return err
				}
				slab[k*w+ex.slot] = v
			}
		}
	}
	rows := slices.Grow(g.buckets[g.cur], n)
	for k := 0; k < n; k++ {
		rows = append(rows, storage.Row(slab[k*w:(k+1)*w:(k+1)*w]))
	}
	g.buckets[g.cur] = rows
	return nil
}
