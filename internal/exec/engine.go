package exec

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"matview/internal/expr"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// Engine executes plan trees batch-at-a-time with morsel-driven parallelism.
//
// A plan is decomposed into pipelines at its breakers: hash-join builds,
// aggregations, projections and the inner side of a nested loop, each fully
// executed before the pipeline above it starts. Every pipeline has one shape
// (gather.go): a source yields the ordinals of a relation — a table or view
// scan reads typed column blocks directly, evaluates fused filter conjuncts
// against column arrays and consults per-block zone maps to skip blocks the
// predicate cannot match (colscan.go) — stages filter the row-id tuples or
// extend them by a join, and a sink builds a join table, aggregates, or
// gathers the surviving tuples into rows. The source range is split into
// morsels (one batch each) claimed by workers off a shared atomic counter;
// every worker owns a private stage chain (selection vectors, scratch rows,
// partial aggregation state), so the hot loop is synchronization-free.
// Shared read-only state — compiled expressions, finished join build tables,
// the inner relation of a nested-loop join — is built once and read by all
// workers.
//
// Output is deterministic and identical to RunReference for every plan:
// gathered rows are ordered by (morsel, position), hash-join match lists are
// kept in build-input order, merged aggregation groups are emitted in global
// first-seen order, and a SUM is the exact sum of its inputs (aggState), so
// no schedule can change a digit of it.
type Engine struct {
	// Workers caps the number of goroutines per pipeline. 0 (or negative)
	// selects GOMAXPROCS. Small inputs use fewer workers — never more than
	// one per morsel — and a single-worker pipeline runs inline without
	// spawning goroutines.
	Workers int
	// BatchSize is the number of rows per batch/morsel (default 1024,
	// matching storage.BlockRows so morsels align with zone-map blocks).
	BatchSize int
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

// materialize fully evaluates a subtree, used at the plan root and for the
// inner side of a nested loop.
func (e *Engine) materialize(db storage.Reader, n Node) ([]storage.Row, error) {
	p, err := e.decompose(db, n)
	if err != nil {
		return nil, err
	}
	if p.src == nil {
		// A view seek, an aggregation or a projection: the rows are fresh and
		// the slice exactly sized, so there is nothing for a pipeline to do.
		return p.rows, nil
	}
	return e.gather(p, gatherColumns(p.layout))
}

// pipeline is a plan subtree in executable form: a rid source, the layout of
// the relations its tuples address, and the stages to stream them through.
// A subtree that has already been evaluated carries only its rows; input
// gives it a source and a layout when something is composed over it.
type pipeline struct {
	src    ridSource
	layout *ridLayout
	stages []ridStageSpec
	rows   []storage.Row
}

// rowsPipeline heads a pipeline with a relation that is already rows.
func rowsPipeline(rows []storage.Row, width int) (pipeline, error) {
	if err := checkRid(len(rows)); err != nil {
		return pipeline{}, err
	}
	return pipeline{src: rowsRidSource(rows), layout: singleLayout(rowsRel(rows, width))}, nil
}

// input is decompose for the input of an operator.
func (e *Engine) input(db storage.Reader, n Node) (pipeline, error) {
	p, err := e.decompose(db, n)
	if err != nil || p.src != nil {
		return p, err
	}
	return rowsPipeline(p.rows, n.Width())
}

// decompose turns a subtree into its topmost pipeline. Everything below a
// breaker in n — join builds, aggregations, projections, nested-loop inner
// sides — is fully executed here, before the caller starts the pipeline;
// when n itself is a breaker (or a view seek) all that is left is its rows.
// Scan filters fuse into the columnar source.
func (e *Engine) decompose(db storage.Reader, n Node) (pipeline, error) {
	switch t := n.(type) {
	case *TableScan:
		tb := db.TableData(t.Table)
		if tb == nil {
			return pipeline{}, fmt.Errorf("exec: unknown table %q", t.Table)
		}
		return scanPipeline(tb.Store(), t.Filter, &t.pred)
	case *ViewScan:
		v := db.ViewData(t.View)
		if v == nil {
			return pipeline{}, fmt.Errorf("exec: view %q not materialized", t.View)
		}
		if len(t.EqCols) == 0 {
			return scanPipeline(v.Store(), t.Filter, &t.pred)
		}
		rows := seekView(v, t.EqCols, t.EqVals, nil)
		if t.Filter == nil {
			return pipeline{rows: rows}, nil
		}
		p, err := rowsPipeline(rows, t.NCols)
		if err != nil {
			return pipeline{}, err
		}
		p.stages = append(p.stages, newRidFilter(p.layout, t.Filter))
		return p, nil
	case *Filter:
		p, err := e.input(db, t.In)
		if err != nil {
			return pipeline{}, err
		}
		p.stages = append(p.stages, newRidFilter(p.layout, t.Pred))
		return p, nil
	case *Project:
		if vs, ok := t.In.(*ViewScan); ok && len(vs.EqCols) > 0 && vs.Filter == nil && projectable(t.Exprs) {
			if v := db.ViewData(vs.View); v != nil {
				return pipeline{rows: seekView(v, vs.EqCols, vs.EqVals, t.Exprs)}, nil
			}
		}
		p, err := e.input(db, t.In)
		if err != nil {
			return pipeline{}, err
		}
		rows, err := e.gather(p, gatherExprs(p.layout, t.Exprs))
		return pipeline{rows: rows}, err
	case *HashAgg:
		p, err := e.input(db, t.In)
		if err != nil {
			return pipeline{}, err
		}
		rows, err := e.aggregate(p, t)
		return pipeline{rows: rows}, err
	case *HashJoin:
		// Build side first — fully executed before the probe side is even
		// decomposed, exactly like the reference evaluator.
		build, bLayout, err := e.buildRidJoin(db, t)
		if err != nil {
			return pipeline{}, err
		}
		p, err := e.input(db, t.R)
		if err != nil {
			return pipeline{}, err
		}
		if ss, ok := p.src.(*scanSource); ok && len(p.stages) == 0 {
			ss.restrictToBuild(build, t.RCols)
		}
		spec := &ridProbeSpec{
			build: build,
			keys:  newRidKeyCodec(build.mode, p.layout, t.RCols),
			batch: e.batchSize(),
		}
		p.layout = concatLayouts(bLayout, p.layout)
		spec.outArity = p.layout.arity()
		p.stages = append(p.stages, spec)
		if t.Residual != nil {
			p.stages = append(p.stages, newRidFilter(p.layout, t.Residual))
		}
		return p, nil
	case *NestedLoopJoin:
		// The inner (right) relation is materialized once, in order, and
		// shared read-only by all workers streaming the outer side.
		rows, err := e.materialize(db, t.R)
		if err != nil {
			return pipeline{}, err
		}
		inner, err := rowsPipeline(rows, t.R.Width())
		if err != nil {
			return pipeline{}, err
		}
		p, err := e.input(db, t.L)
		if err != nil {
			return pipeline{}, err
		}
		p.layout = concatLayouts(p.layout, inner.layout)
		p.stages = append(p.stages, &ridLoopSpec{inner: len(rows), batch: e.batchSize()})
		if t.Pred != nil {
			p.stages = append(p.stages, newRidFilter(p.layout, t.Pred))
		}
		return p, nil
	default:
		return pipeline{}, fmt.Errorf("exec: engine cannot execute %T", n)
	}
}

// scanPipeline heads a pipeline with a table's or view's column store,
// filtered by the scan node's filter as compiled into pred.
func scanPipeline(st *storage.ColumnStore, filter expr.Expr, pred *atomic.Pointer[scanPred]) (pipeline, error) {
	ss, err := newScanSource(st, filter, pred)
	if err != nil {
		return pipeline{}, err
	}
	return pipeline{src: ss, layout: singleLayout(storeRel(st, ss.cols))}, nil
}

// gather runs a pipeline into the gather sink and returns its rows in morsel
// order.
func (e *Engine) gather(p pipeline, spec *gatherSpec) ([]storage.Row, error) {
	var buckets [][]storage.Row
	if _, err := e.run(p, func(numMorsels int) ridSink {
		if buckets == nil {
			buckets = make([][]storage.Row, numMorsels)
		}
		return newGatherSink(spec, buckets)
	}); err != nil {
		return nil, err
	}
	rows := slices.Concat(buckets...)
	if spec.stored {
		scanLedger.rowsGathered.Add(int64(len(rows)))
	}
	return rows, nil
}

// seekView resolves a point lookup on a view: via a secondary index when one
// exists, otherwise by scanning with key equality. Matching rows are
// materialized fresh from the column store — never aliases of view storage —
// so results stay stable if the view is maintained after the lookup. proj,
// when non-nil, is a projectable list over the view's columns: rows are then
// emitted at projection width. Either way the result is one exactly-sized
// slice of rows over one value slab.
func seekView(v *storage.Data, eqCols []int, eqVals []sqlvalue.Value, proj []expr.Expr) []storage.Row {
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
// The driver

// forEachMorsel distributes morsel sequence numbers [0, nm) across w
// workers, calling body(worker, seq) once per morsel. A single worker runs
// inline without goroutines. A failure stops the claiming of morsels; the one
// reported (an error, or a panic re-raised on the calling goroutine) is the
// lowest morsel's, since every morsel before it was claimed first and runs to
// its end: the first failure in morsel order, whatever the scheduling.
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
		fseq  = nm
		wg    sync.WaitGroup
	)
	fail := func(seq int, err error, p any) {
		mu.Lock()
		if seq < fseq {
			fseq, first, pval = seq, err, p
		}
		mu.Unlock()
		abort.Store(true)
	}
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := 0
			defer func() {
				if p := recover(); p != nil {
					fail(seq, nil, p)
				}
			}()
			for !abort.Load() {
				if seq = int(next.Add(1) - 1); seq >= nm {
					return
				}
				if err := body(wi, seq); err != nil {
					fail(seq, err, nil)
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

// run streams p's source through its stages: one sink and one stage chain per
// worker, morsels claimed off a shared counter. There are no more workers
// than morsels the zone maps leave to read, so a scan pruned to one morsel
// runs inline. mkSink is called serially (before workers start), once per
// worker, with the morsel count. Every pipeline of every plan runs here; a
// delta term (delta.go) keeps one worker and drives it the same way.
func (e *Engine) run(p pipeline, mkSink func(numMorsels int) ridSink) ([]ridSink, error) {
	bs := e.batchSize()
	nm := (p.src.numRows() + bs - 1) / bs
	w := min(e.workers(), nm)
	if ss, ok := p.src.(*scanSource); ok && len(ss.zones) > 0 {
		w = ss.liveMorsels(bs, w)
	}
	w = max(1, w)
	workers := make([]*ridWorker, w)
	sinks := make([]ridSink, w)
	for i := range workers {
		sc := scanScratchPool.Get().(*scanScratch)
		defer scanScratchPool.Put(sc)
		sinks[i] = mkSink(nm)
		workers[i] = newRidWorker(p.stages, sinks[i], sc)
	}
	err := forEachMorsel(nm, w, func(wi, seq int) error { return workers[wi].morsel(p.src, seq, bs) })
	// Return the stages' scratch to the pool: no worker goroutines remain.
	for _, wk := range workers {
		wk.release()
	}
	if err != nil {
		return nil, err
	}
	return sinks, nil
}

// ridWorker is one worker's instance of a pipeline: its source scratch, whose
// counts its stages add to, and its stage chain ending in its sink.
type ridWorker struct {
	sc     *scanScratch
	sink   ridSink
	chain  ridPusher
	stages []ridStage
}

func newRidWorker(specs []ridStageSpec, sink ridSink, sc *scanScratch) *ridWorker {
	w := &ridWorker{sc: sc, sink: sink, chain: sink}
	for s := len(specs) - 1; s >= 0; s-- {
		st := specs[s].makeRid(w.chain, &sc.stats)
		w.stages = append(w.stages, st)
		w.chain = st
	}
	return w
}

// morsel runs morsel seq of src, bs rows from seq·bs, through the chain.
func (w *ridWorker) morsel(src ridSource, seq, bs int) error {
	lo := seq * bs
	hi := min(lo+bs, src.numRows())
	w.sink.begin(seq)
	sc := w.sc
	defer sc.stats.flush()
	rids, err := src.morselRids(lo, hi, sc, sc.rids[:0])
	sc.rids = rids
	if err != nil || len(rids) == 0 {
		return err
	}
	return w.chain.pushRids(sc.ridBatch(rids))
}

// release returns the stages' pooled scratch.
func (w *ridWorker) release() {
	for _, st := range w.stages {
		st.release()
	}
}

// rowAlloc hands out output rows carved from chunked value slabs, so an
// operator emitting N rows performs O(N·width/slab) allocations instead of
// N. Slabs grow with what has been emitted — a few rows first, four times
// the previous slab after that, up to rowAllocSlab values — so a stage that
// emits one row pays for a few, not for a thousand. Emitted rows stay valid
// forever, unless the owner rewinds: a delta term's sink does at each run.
type rowAlloc struct {
	buf  []sqlvalue.Value
	slab []sqlvalue.Value // buf is its tail
	next int              // values in the next slab; 0 before the first
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
		a.slab = a.buf
	}
	r := a.buf[:w:w]
	a.buf = a.buf[w:]
	return storage.Row(r)
}

// rewind clears the last slab and hands it out again: the rows cut from it
// are no longer read.
func (a *rowAlloc) rewind() {
	clear(a.slab)
	a.buf = a.slab
}

// ordinal places a tuple in the pipeline's output order: the sequence number
// of the morsel that produced it, then its position among that morsel's
// tuples. Aggregation keeps the smallest ordinal per group to emit groups in
// first-seen order. A morsel that fans out past 2³² tuples carries into the
// next morsel's range; only the relative order of groups first seen in those
// two morsels can then differ from the reference's — never a group or a sum.
func ordinal(seq int, ctr int64) int64 { return int64(seq)<<32 | ctr }
