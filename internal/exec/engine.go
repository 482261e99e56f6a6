package exec

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"matview/internal/expr"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// Engine executes plan trees batch-at-a-time with morsel-driven parallelism.
//
// A plan is decomposed into pipelines at its breakers (hash-join builds and
// hash aggregation). Each pipeline streams fixed-size batches of rows from a
// row source through a chain of compiled operator stages — filter, project,
// hash-join probe, nested-loop — into a sink. Table and view scans are
// columnar sources: they read typed column blocks directly, evaluate fused
// filter conjuncts against column arrays, consult per-block zone maps to
// skip blocks the predicate cannot match, and materialize only qualifying
// rows (see colscan.go). The source range is split into morsels (one batch
// each) claimed by workers off a shared atomic counter; every worker owns a
// private stage chain (scratch batches, row slabs, partial aggregation
// state), so the hot loop is synchronization-free. Shared read-only state —
// compiled expressions, finished join build tables, the inner relation of a
// nested-loop join — is built once and read by all workers.
//
// Output is deterministic and identical to RunReference for every plan:
// collected rows are ordered by (morsel, position), hash-join match lists are
// kept in build-input order, merged aggregation groups are emitted in global
// first-seen order, and a SUM is the exact sum of its inputs (aggState), so
// no schedule can change a digit of it.
type Engine struct {
	// Workers caps the number of goroutines per pipeline. 0 (or negative)
	// selects GOMAXPROCS. Small inputs use fewer workers — never more than
	// one per morsel — and a single-worker pipeline runs inline without
	// spawning goroutines, which keeps tiny maintainer delta queries cheap.
	Workers int
	// BatchSize is the number of rows per batch/morsel (default 1024,
	// matching storage.BlockRows so morsels align with zone-map blocks).
	BatchSize int
	// DisableZoneSkip turns off zone-map block skipping (scans read every
	// block). Used by tests to compare skipping against exhaustive scans.
	DisableZoneSkip bool
	// DisableLateMat turns off late-materialization join pipelines (joins
	// materialize full rows at the scan, the pre-rid path). Used by tests to
	// compare the two join paths.
	DisableLateMat bool
	// DisableTypedKeys forces rid joins onto the boxed sqlvalue.AppendKey
	// codec even when typed fast paths apply. Used by equivalence tests to
	// exercise the fallback against the typed paths.
	DisableTypedKeys bool
}

// DefaultEngine is the engine behind Node.Run.
var DefaultEngine = &Engine{}

const defaultBatchSize = 1024

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (e *Engine) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return defaultBatchSize
}

// Run executes the plan and returns its full output. The returned rows are
// freshly materialized — never aliases of storage-owned memory — so results
// remain valid after the database read lock is released.
func (e *Engine) Run(db storage.Reader, plan Node) ([]storage.Row, error) {
	return e.materialize(db, plan)
}

// materialize fully evaluates a subtree, used at the plan root and at
// pipeline breakers.
func (e *Engine) materialize(db storage.Reader, n Node) ([]storage.Row, error) {
	if a, ok := n.(*HashAgg); ok {
		return e.runAgg(db, a)
	}
	src, specs, err := e.stream(db, n)
	if err != nil {
		return nil, err
	}
	if rows, ok := src.(sliceSource); ok && len(specs) == 0 {
		// A view seek or an aggregation below: the rows are fresh and the
		// slice exactly sized, so there is nothing for a pipeline to do.
		return rows, nil
	}
	var col *collector
	if _, err := e.runPipeline(src, specs, func(nm int) morselSink {
		if col == nil {
			col = &collector{buckets: make([][]storage.Row, nm)}
		}
		return &collectorSink{c: col}
	}); err != nil {
		return nil, err
	}
	return slices.Concat(col.buckets...), nil
}

// stream decomposes a subtree into the current pipeline: a row source and
// the ordered stage specs to stream it through. Pipeline breakers below n
// (join builds, aggregations, nested-loop inner sides) are fully executed
// here, before the caller starts the pipeline. Scan filters fuse into the
// columnar source, and a Project of plain columns/constants over a bare scan
// fuses into the scan's output emitters.
func (e *Engine) stream(db storage.Reader, n Node) (rowSource, []stageSpec, error) {
	switch t := n.(type) {
	case *TableScan:
		tb := db.TableData(t.Table)
		if tb == nil {
			return nil, nil, fmt.Errorf("exec: unknown table %q", t.Table)
		}
		return newScanSource(tb.Store(), t.Filter, e), nil, nil
	case *ViewScan:
		v := db.ViewData(t.View)
		if v == nil {
			return nil, nil, fmt.Errorf("exec: view %q not materialized", t.View)
		}
		if len(t.EqCols) > 0 {
			rows := seekView(v, t.EqCols, t.EqVals, nil)
			var specs []stageSpec
			if t.Filter != nil {
				specs = append(specs, &filterSpec{pred: expr.CompilePredicate(t.Filter)})
			}
			return sliceSource(rows), specs, nil
		}
		return newScanSource(v.Store(), t.Filter, e), nil, nil
	case *Filter:
		src, specs, err := e.stream(db, t.In)
		if err != nil {
			return nil, nil, err
		}
		if rs, ok := src.(*ridRowSource); ok && len(specs) == 0 && !rs.projected {
			rs.addFilter(t.Pred)
			return rs, nil, nil
		}
		return src, append(specs, &filterSpec{pred: expr.CompilePredicate(t.Pred)}), nil
	case *Project:
		if vs, ok := t.In.(*ViewScan); ok && len(vs.EqCols) > 0 && vs.Filter == nil && projectable(t.Exprs) {
			if v := db.ViewData(vs.View); v != nil {
				return sliceSource(seekView(v, vs.EqCols, vs.EqVals, t.Exprs)), nil, nil
			}
		}
		src, specs, err := e.stream(db, t.In)
		if err != nil {
			return nil, nil, err
		}
		if ss, ok := src.(*scanSource); ok && len(specs) == 0 && !ss.projected && projectable(t.Exprs) {
			ss.setProjection(t.Exprs)
			return ss, nil, nil
		}
		if rs, ok := src.(*ridRowSource); ok && len(specs) == 0 && !rs.projected {
			if projectable(t.Exprs) {
				rs.setProjection(t.Exprs)
				return rs, nil, nil
			}
			// Non-trivial projection: still narrow the gather to the columns
			// the projection actually reads before the row stage runs.
			rs.narrowTo(t.Exprs)
		}
		return src, append(specs, &projectSpec{exprs: compileAll(t.Exprs)}), nil
	case *HashJoin:
		if !e.DisableLateMat {
			src, layout, stages, ok, err := e.streamRids(db, t)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				return &ridRowSource{e: e, src: src, layout: layout, stages: stages}, nil, nil
			}
		}
		build, err := e.buildJoin(db, t)
		if err != nil {
			return nil, nil, err
		}
		src, specs, err := e.stream(db, t.R)
		if err != nil {
			return nil, nil, err
		}
		spec := &probeSpec{build: build, cols: t.RCols, batch: e.batchSize()}
		if t.Residual != nil {
			spec.residual = expr.CompilePredicate(t.Residual)
		}
		return src, append(specs, spec), nil
	case *NestedLoopJoin:
		// The inner (right) relation is materialized once, in order, and
		// shared read-only by all workers streaming the outer side.
		inner, err := e.materialize(db, t.R)
		if err != nil {
			return nil, nil, err
		}
		src, specs, err := e.stream(db, t.L)
		if err != nil {
			return nil, nil, err
		}
		spec := &nestedLoopSpec{inner: inner, batch: e.batchSize()}
		if t.Pred != nil {
			spec.pred = expr.CompilePredicate(t.Pred)
		}
		return src, append(specs, spec), nil
	case *HashAgg:
		rows, err := e.runAgg(db, t)
		if err != nil {
			return nil, nil, err
		}
		return sliceSource(rows), nil, nil
	default:
		return nil, nil, fmt.Errorf("exec: engine cannot execute %T", n)
	}
}

func compileAll(es []expr.Expr) []expr.Compiled {
	out := make([]expr.Compiled, len(es))
	for i, ex := range es {
		out[i] = expr.Compile(ex)
	}
	return out
}

// seekView resolves a point lookup on a view: via a secondary index when one
// exists, otherwise by scanning with key equality. Matching rows are
// materialized fresh from the column store — never aliases of view storage —
// so results stay stable if the view is maintained after the lookup. proj,
// when non-nil, is a projectable list over the view's columns: rows are then
// emitted at projection width. Either way the result is one exactly-sized
// slice of rows over one value slab.
func seekView(v *storage.ViewData, eqCols []int, eqVals []sqlvalue.Value, proj []expr.Expr) []storage.Row {
	st := v.Store()
	var ords []int
	if idx := v.LookupIndex(eqCols); idx != nil {
		ords = idx.Probe(eqVals) // the index's own bucket: read, never kept
	} else {
		n := st.Len()
		for i := 0; i < n; i++ {
			match := !st.IsDead(i)
			for k, c := range eqCols {
				if !sqlvalue.Identical(st.Value(i, c), eqVals[k]) {
					match = false
					break
				}
			}
			if match {
				ords = append(ords, i)
			}
		}
	}
	ncols := st.NumCols()
	w := ncols
	if proj != nil {
		w = len(proj)
	}
	rows := make([]storage.Row, len(ords))
	vals := make([]sqlvalue.Value, len(ords)*w)
	for k, ord := range ords {
		rows[k] = vals[k*w : (k+1)*w : (k+1)*w]
		if proj == nil {
			st.MaterializeInto(rows[k], ord)
		}
		for j, ex := range proj {
			if c, ok := ex.(expr.Column); !ok {
				rows[k][j] = ex.(expr.Const).Val
			} else if c.Ref.Tab == 0 && c.Ref.Col >= 0 && c.Ref.Col < ncols { // unbound reads NULL, as compiled
				rows[k][j] = st.Value(ord, c.Ref.Col)
			}
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Pipeline machinery

// pusher consumes one batch of rows. The input slice (and its backing array)
// is only valid during the call: downstream stages must copy row headers
// they retain. The rows themselves are immutable.
type pusher interface {
	push(in []storage.Row) error
}

// morselSink terminates a worker's stage chain. begin is called before each
// morsel with the morsel's global sequence number, which sinks use to keep
// output deterministic (collector buckets, first-seen ordinals).
type morselSink interface {
	pusher
	begin(seq int)
}

// stageSpec holds the shared, read-only state of one operator (compiled
// expressions, build tables) and makes per-worker stage instances that own
// all mutable scratch.
type stageSpec interface {
	make(next pusher) pusher
}

// forEachMorsel distributes morsel sequence numbers [0, nm) across w
// workers, calling body(worker, seq) once per morsel. A single worker runs
// inline without goroutines. Worker panics are re-raised on the calling
// goroutine; the first error aborts remaining morsels.
func forEachMorsel(nm, w int, body func(wi, seq int) error) error {
	if w == 1 {
		for seq := 0; seq < nm; seq++ {
			if err := body(0, seq); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next  atomic.Int64
		abort atomic.Bool
		mu    sync.Mutex
		first error
		pval  any
		wg    sync.WaitGroup
	)
	fail := func(err error, p any) {
		mu.Lock()
		if first == nil && pval == nil {
			first, pval = err, p
		}
		mu.Unlock()
		abort.Store(true)
	}
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					fail(nil, p)
				}
			}()
			for !abort.Load() {
				seq := int(next.Add(1) - 1)
				if seq >= nm {
					return
				}
				if err := body(wi, seq); err != nil {
					fail(err, nil)
					return
				}
			}
		}()
	}
	wg.Wait()
	if pval != nil {
		panic(pval)
	}
	return first
}

// runPipeline streams src through the stage specs: one sink and one stage
// chain per worker, morsels claimed off a shared counter. mkSink is called
// serially (before workers start), once per worker, with the morsel count.
func (e *Engine) runPipeline(src rowSource, specs []stageSpec, mkSink func(numMorsels int) morselSink) ([]morselSink, error) {
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
	// Resolve the rid source's gather plan before workers fan out: the lazy
	// default in gatherSpec() must not race across first morsels.
	if rs, ok := src.(*ridRowSource); ok {
		rs.gatherSpec()
	}
	sinks := make([]morselSink, w)
	chains := make([]pusher, w)
	scratch := make([]scanScratch, w)
	for i := range sinks {
		sinks[i] = mkSink(nm)
		var p pusher = sinks[i]
		for s := len(specs) - 1; s >= 0; s-- {
			p = specs[s].make(p)
		}
		chains[i] = p
	}
	err := forEachMorsel(nm, w, func(wi, seq int) error {
		lo := seq * bs
		hi := min(lo+bs, n)
		sinks[wi].begin(seq)
		defer scratch[wi].stats.flush()
		rows, err := src.morsel(lo, hi, &scratch[wi])
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			return nil
		}
		return chains[wi].push(rows)
	})
	// Return rid-pipeline scratch to the pool: no worker goroutines remain.
	for i := range scratch {
		if scratch[i].rid != nil {
			scratch[i].rid.release()
		}
	}
	if err != nil {
		return nil, err
	}
	return sinks, nil
}

// rowAlloc hands out output rows carved from chunked value slabs, so an
// operator emitting N rows performs O(N·width/slab) allocations instead of
// N. Slabs grow with what has been emitted — a few rows first, four times
// the previous slab after that, up to rowAllocSlab values — so a stage that
// emits one row pays for a few, not for a thousand. Slabs are never
// recycled: emitted rows stay valid forever.
type rowAlloc struct {
	buf  []sqlvalue.Value
	next int // values in the next slab; 0 before the first
}

const (
	rowAllocFirst = 16
	rowAllocSlab  = 4096
)

func (a *rowAlloc) row(w int) storage.Row {
	if len(a.buf) < w {
		n := max(a.next, rowAllocFirst, w)
		a.next = min(4*n, rowAllocSlab)
		a.buf = make([]sqlvalue.Value, n)
	}
	r := a.buf[:w:w]
	a.buf = a.buf[w:]
	return storage.Row(r)
}

// appendRowKey appends the composite hash key of the given columns, or
// reports false if any is NULL (NULL join keys never match). The encoding —
// Value.Key bytes joined by 0x1f — matches the reference evaluator's.
func appendRowKey(dst []byte, r storage.Row, cols []int) ([]byte, bool) {
	for _, c := range cols {
		if r[c].IsNull() {
			return dst, false
		}
		dst = r[c].AppendKey(dst)
		dst = append(dst, '\x1f')
	}
	return dst, true
}

// ---------------------------------------------------------------------------
// Stages

type filterSpec struct {
	pred expr.CompiledPredicate
}

func (s *filterSpec) make(next pusher) pusher {
	return &filterStage{pred: s.pred, next: next}
}

type filterStage struct {
	pred    expr.CompiledPredicate
	next    pusher
	scratch []storage.Row
}

func (f *filterStage) push(in []storage.Row) error {
	out := f.scratch[:0]
	for _, r := range in {
		ok, err := f.pred(r)
		if err != nil {
			return err
		}
		if ok {
			out = append(out, r)
		}
	}
	f.scratch = out
	if len(out) == 0 {
		return nil
	}
	return f.next.push(out)
}

type projectSpec struct {
	exprs []expr.Compiled
}

func (s *projectSpec) make(next pusher) pusher {
	return &projectStage{exprs: s.exprs, next: next}
}

type projectStage struct {
	exprs   []expr.Compiled
	next    pusher
	alloc   rowAlloc
	scratch []storage.Row
}

func (p *projectStage) push(in []storage.Row) error {
	out := p.scratch[:0]
	for _, r := range in {
		nr := p.alloc.row(len(p.exprs))
		for c, ex := range p.exprs {
			v, err := ex(r)
			if err != nil {
				return err
			}
			nr[c] = v
		}
		out = append(out, nr)
	}
	p.scratch = out
	if len(out) == 0 {
		return nil
	}
	return p.next.push(out)
}

// joinBuild is a finished, immutable hash-join build table shared by all
// probe workers: key → left rows in build-input order.
type joinBuild struct {
	idx   map[string]int32
	lists [][]storage.Row
}

type probeSpec struct {
	build    *joinBuild
	cols     []int // key columns in the probe row
	residual expr.CompiledPredicate
	batch    int
}

func (s *probeSpec) make(next pusher) pusher {
	return &probeStage{spec: s, next: next}
}

type probeStage struct {
	spec    *probeSpec
	next    pusher
	alloc   rowAlloc
	keyBuf  []byte
	scratch []storage.Row
}

func (p *probeStage) push(in []storage.Row) error {
	s := p.spec
	out := p.scratch[:0]
	defer func() { p.scratch = out[:0] }()
	for _, rr := range in {
		key, ok := appendRowKey(p.keyBuf[:0], rr, s.cols)
		p.keyBuf = key[:0]
		if !ok {
			continue
		}
		li, ok := s.build.idx[string(key)]
		if !ok {
			continue
		}
		for _, lr := range s.build.lists[li] {
			joined := p.alloc.row(len(lr) + len(rr))
			copy(joined, lr)
			copy(joined[len(lr):], rr)
			if s.residual != nil {
				pass, err := s.residual(joined)
				if err != nil {
					return err
				}
				if !pass {
					continue
				}
			}
			out = append(out, joined)
			if len(out) >= s.batch {
				if err := p.next.push(out); err != nil {
					return err
				}
				out = out[:0]
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return p.next.push(out)
}

type nestedLoopSpec struct {
	inner []storage.Row
	pred  expr.CompiledPredicate
	batch int
}

func (s *nestedLoopSpec) make(next pusher) pusher {
	return &nestedLoopStage{spec: s, next: next}
}

type nestedLoopStage struct {
	spec    *nestedLoopSpec
	next    pusher
	alloc   rowAlloc
	scratch []storage.Row
}

func (n *nestedLoopStage) push(in []storage.Row) error {
	s := n.spec
	out := n.scratch[:0]
	defer func() { n.scratch = out[:0] }()
	for _, lr := range in {
		for _, rr := range s.inner {
			joined := n.alloc.row(len(lr) + len(rr))
			copy(joined, lr)
			copy(joined[len(lr):], rr)
			if s.pred != nil {
				pass, err := s.pred(joined)
				if err != nil {
					return err
				}
				if !pass {
					continue
				}
			}
			out = append(out, joined)
			if len(out) >= s.batch {
				if err := n.next.push(out); err != nil {
					return err
				}
				out = out[:0]
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return n.next.push(out)
}

// ---------------------------------------------------------------------------
// Sinks

// collector gathers pipeline output rows bucketed by morsel sequence number,
// so concatenating buckets reproduces the serial (reference) output order.
// Each bucket is written by exactly the worker that owns the morsel.
type collector struct {
	buckets [][]storage.Row
}

type collectorSink struct {
	c   *collector
	cur int
}

func (s *collectorSink) begin(seq int) { s.cur = seq }

func (s *collectorSink) push(in []storage.Row) error {
	s.c.buckets[s.cur] = append(s.c.buckets[s.cur], in...)
	return nil
}

// ordinal builds a global row ordinal from a morsel sequence number and a
// within-morsel counter. Morsels are batch-sized at the source, so counters
// stay far below 2³² except under extreme join fan-out; ordering only
// degrades (never corrupts) in that case.
func ordinal(seq int, ctr int64) int64 { return int64(seq)<<32 | ctr }

// buildSink accumulates one worker's shard of a hash-join build table,
// tagging every entry with its global ordinal so the merged per-key lists
// can be restored to build-input order.
type buildSink struct {
	cols    []int
	idx     map[string]int32
	lists   [][]buildEntry
	keyBuf  []byte
	ordBase int64
	ctr     int64
}

type buildEntry struct {
	row storage.Row
	ord int64
}

func (b *buildSink) begin(seq int) {
	b.ordBase = ordinal(seq, 0)
	b.ctr = 0
}

func (b *buildSink) push(in []storage.Row) error {
	for _, r := range in {
		ord := b.ordBase | b.ctr
		b.ctr++
		key, ok := appendRowKey(b.keyBuf[:0], r, b.cols)
		b.keyBuf = key[:0]
		if !ok {
			continue
		}
		if li, ok := b.idx[string(key)]; ok {
			b.lists[li] = append(b.lists[li], buildEntry{r, ord})
		} else {
			b.idx[string(key)] = int32(len(b.lists))
			b.lists = append(b.lists, []buildEntry{{r, ord}})
		}
	}
	return nil
}

// buildJoin executes the build side of a hash join as its own pipeline and
// merges the per-worker shards into one immutable table.
func (e *Engine) buildJoin(db storage.Reader, j *HashJoin) (*joinBuild, error) {
	src, specs, err := e.stream(db, j.L)
	if err != nil {
		return nil, err
	}
	sinks, err := e.runPipeline(src, specs, func(int) morselSink {
		return &buildSink{cols: j.LCols, idx: make(map[string]int32)}
	})
	if err != nil {
		return nil, err
	}
	if len(sinks) == 1 {
		// Single shard: entries are already in ordinal order.
		b := sinks[0].(*buildSink)
		out := &joinBuild{idx: b.idx, lists: make([][]storage.Row, len(b.lists))}
		for i, es := range b.lists {
			rows := make([]storage.Row, len(es))
			for k, en := range es {
				rows[k] = en.row
			}
			out.lists[i] = rows
		}
		return out, nil
	}
	idx := make(map[string]int32)
	var merged [][]buildEntry
	for _, s := range sinks {
		b := s.(*buildSink)
		for k, li := range b.idx {
			if gi, ok := idx[k]; ok {
				merged[gi] = append(merged[gi], b.lists[li]...)
			} else {
				idx[k] = int32(len(merged))
				merged = append(merged, b.lists[li])
			}
		}
	}
	out := &joinBuild{idx: idx, lists: make([][]storage.Row, len(merged))}
	for i, es := range merged {
		sort.Slice(es, func(a, b int) bool { return es[a].ord < es[b].ord })
		rows := make([]storage.Row, len(es))
		for k, en := range es {
			rows[k] = en.row
		}
		out.lists[i] = rows
	}
	return out, nil
}
