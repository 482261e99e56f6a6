package exec

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"matview/internal/expr"
	"matview/internal/ranges"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// The scan and join counters, package-global so every engine (server, shell,
// maintainer deltas, benchmarks) feeds the same ledger. A "block" is a block
// segment visited by one morsel; with the default 1024-row batch size,
// morsels align with storage blocks and segments == blocks. The join
// counters are probe-side tuples entering a hash-join or delta-term probe,
// tuples whose key found at least one match, and rows the gather sink boxed out of
// column stores; the gap between probed and gathered is the work late
// materialization avoids. Workers count in their scanScratch and flush once
// per morsel; gathered rows are added once per pipeline. Reference plans
// counts BuildReferencePlan's compilations: view builds and the oracle, never
// a maintained write.
var scanLedger struct {
	blocksScanned, blocksSkipped, rowsProbed, rowsMatched, rowsGathered, referencePlans atomic.Int64
}

// ScanStats is a snapshot of the columnar scan and join counters.
type ScanStats struct {
	BlocksScanned int64 `json:"blocks_scanned"`
	BlocksSkipped int64 `json:"blocks_skipped"`
	RowsProbed    int64 `json:"rows_probed"`
	RowsMatched   int64 `json:"rows_matched"`
	RowsGathered  int64 `json:"rows_gathered"`

	ReferencePlans int64 `json:"reference_plans"`
}

// SkipRate returns the fraction of visited blocks that zone maps proved
// irrelevant, in [0,1].
func (s ScanStats) SkipRate() float64 {
	total := s.BlocksScanned + s.BlocksSkipped
	if total == 0 {
		return 0
	}
	return float64(s.BlocksSkipped) / float64(total)
}

// ProbeHitRate returns the fraction of probe-side tuples whose join key
// matched at least one build entry, in [0,1].
func (s ScanStats) ProbeHitRate() float64 {
	if s.RowsProbed == 0 {
		return 0
	}
	return float64(s.RowsMatched) / float64(s.RowsProbed)
}

// ReadScanStats returns the cumulative scan and join counters.
func ReadScanStats() ScanStats {
	l := &scanLedger
	return ScanStats{
		BlocksScanned: l.blocksScanned.Load(),
		BlocksSkipped: l.blocksSkipped.Load(),
		RowsProbed:    l.rowsProbed.Load(),
		RowsMatched:   l.rowsMatched.Load(),
		RowsGathered:  l.rowsGathered.Load(),

		ReferencePlans: l.referencePlans.Load(),
	}
}

// ResetScanStats zeroes the scan and join counters (benchmarks and tests).
func ResetScanStats() {
	l := &scanLedger
	for _, c := range []*atomic.Int64{&l.blocksScanned, &l.blocksSkipped, &l.rowsProbed, &l.rowsMatched, &l.rowsGathered, &l.referencePlans} {
		c.Store(0)
	}
}

// flush moves a worker's counts for one morsel into the ledger.
func (s *ScanStats) flush() {
	add := func(sum *atomic.Int64, n int64) {
		if n != 0 {
			sum.Add(n)
		}
	}
	add(&scanLedger.blocksScanned, s.BlocksScanned)
	add(&scanLedger.blocksSkipped, s.BlocksSkipped)
	add(&scanLedger.rowsProbed, s.RowsProbed)
	add(&scanLedger.rowsMatched, s.RowsMatched)
	*s = ScanStats{}
}

// scanScratch is one worker's private source state: the selection-vector
// buffer and the one-relation batch a morsel's ordinals head the pipeline as,
// the kernels' vecs and marks, the row a boxed conjunct is evaluated over,
// and the worker's counts for the current morsel.
type scanScratch struct {
	stats    ScanStats
	gather   storage.Row
	rids     []int32
	batch    ridBatch
	sel      [1][]int32 // batch's selection-vector header
	vecs     vecStack
	marks    []bool // row markBase+i is kept for a NULL only
	markBase int
}

// scanScratchPool keeps workers' scratch, selection vectors included, across runs.
var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// ridBatch wraps a morsel's qualifying ordinals as the batch a pipeline
// starts from, valid until the worker's next morsel.
func (sc *scanScratch) ridBatch(rids []int32) *ridBatch {
	sc.sel[0] = rids
	sc.batch = ridBatch{n: len(rids), sel: sc.sel[:]}
	return &sc.batch
}

// colEmitter produces the boxed value of one output column for row ordinal i.
type colEmitter func(i int) sqlvalue.Value

func nullEmitter(int) sqlvalue.Value { return sqlvalue.Null }

// makeEmitter builds the emitter reading a column's blocks.
func makeEmitter(v storage.ColView) colEmitter {
	const shift, mask = storage.BlockShift, storage.BlockRows - 1
	switch v.Kind {
	case sqlvalue.KindInt:
		return func(i int) sqlvalue.Value {
			if b := v.Block(i >> shift); !bitSet(b.Nulls, i&mask) {
				return sqlvalue.NewInt(b.Ints[i&mask])
			}
			return sqlvalue.Null
		}
	case sqlvalue.KindDate:
		return func(i int) sqlvalue.Value {
			if b := v.Block(i >> shift); !bitSet(b.Nulls, i&mask) {
				return sqlvalue.NewDate(b.Ints[i&mask])
			}
			return sqlvalue.Null
		}
	case sqlvalue.KindBool:
		return func(i int) sqlvalue.Value {
			if b := v.Block(i >> shift); !bitSet(b.Nulls, i&mask) {
				return sqlvalue.NewBool(b.Ints[i&mask] != 0)
			}
			return sqlvalue.Null
		}
	case sqlvalue.KindFloat:
		return func(i int) sqlvalue.Value {
			if b := v.Block(i >> shift); !bitSet(b.Nulls, i&mask) {
				return sqlvalue.NewFloat(b.Floats[i&mask])
			}
			return sqlvalue.Null
		}
	case sqlvalue.KindString:
		return func(i int) sqlvalue.Value {
			if b := v.Block(i >> shift); !bitSet(b.Nulls, i&mask) {
				return sqlvalue.NewString(b.Strs[i&mask])
			}
			return sqlvalue.Null
		}
	default: // KindNull: the column has only ever held NULL
		return nullEmitter
	}
}

func bitSet(bm []uint64, i int) bool {
	w := i >> 6
	return w < len(bm) && bm[w]&(1<<(uint(i)&63)) != 0
}

// scanSource heads a pipeline with a table or view scan straight out of
// column blocks: the fused filter runs against column arrays (vectorized
// conjuncts read typed payloads; only non-vectorizable conjuncts see a boxed
// row), zone maps skip whole blocks when the predicate cannot hold there, and
// nothing is materialized — a morsel is the ordinals that qualified. The
// compiled filter (pred) is shared and read-only; cols binds it to this
// execution's store.
type scanSource struct {
	store *storage.ColumnStore
	cols  []storage.ColView
	pred  *scanPred
	zones []zoneConstraint // what the zone maps are tested against; only when pred is nil or safe
}

// newScanSource binds a scan of store under filter. cached, when not nil,
// is the plan node's compiled filter: used as it is while the store's column
// kinds are the ones it was compiled against, and replaced by a fresh
// compilation when they are not (a column that held only NULLs has since
// taken a kind, or a rewrite left one all-NULL again).
func newScanSource(store *storage.ColumnStore, filter expr.Expr, cached *atomic.Pointer[scanPred]) (*scanSource, error) {
	s := new(scanSource)
	return s, s.bind(store, filter, cached)
}

// bind points s at store under filter, as newScanSource describes, reusing
// s's column slice.
func (s *scanSource) bind(store *storage.ColumnStore, filter expr.Expr, cached *atomic.Pointer[scanPred]) error {
	if err := checkRid(store.Len()); err != nil {
		return err
	}
	s.store, s.cols, s.pred, s.zones = store, s.cols[:0], nil, nil
	if cap(s.cols) < store.NumCols() {
		s.cols = make([]storage.ColView, 0, store.NumCols())
	}
	for c := range store.NumCols() {
		s.cols = append(s.cols, store.Col(c))
	}
	if filter == nil {
		return nil
	}
	if cached != nil {
		s.pred = cached.Load()
	}
	if s.pred == nil || !s.pred.fits(s.cols) {
		s.pred = compileScanPred(filter, colKinds(s.cols))
		if cached != nil {
			cached.Store(s.pred)
		}
	}
	s.zones = s.pred.zones
	return nil
}

// restrictToBuild makes a hash join's probe scan skip the blocks whose keys
// all lie outside the int-keyed build's key range (every block, if the build
// is empty). It keeps the reference's answer and errors: only under a nil or
// safe filter, so no skipped row could have failed; only on INTEGER and DATE
// columns, whose payloads are the build's key space, bounded in the column's
// own kind; and a block of NULL keys matches nothing.
func (s *scanSource) restrictToBuild(b *ridJoinBuild, cols []int) {
	if b.mode != keyModeInts || (s.pred != nil && !s.pred.safe) {
		return
	}
	for i, c := range cols {
		box := sqlvalue.NewInt
		switch s.cols[c].Kind {
		case sqlvalue.KindInt:
		case sqlvalue.KindDate:
			box = sqlvalue.NewDate
		default:
			continue
		}
		var set ranges.IntervalSet // empty: an empty build matches nothing
		if b.tab.n > 0 {
			r, _ := ranges.Universal().Apply(expr.GE, box(b.lo[i]))
			r, _ = r.Apply(expr.LE, box(b.hi[i]))
			set = ranges.NewIntervalSet(r)
		}
		// Clipped: the predicate's zones belong to the shared compiled filter.
		s.zones = append(slices.Clip(s.zones), zoneConstraint{col: c, set: set})
	}
}

// liveMorsels counts, up to limit, the morsels of bs rows that hold a block
// the zone maps do not rule out: the workers a scan can keep busy.
func (s *scanSource) liveMorsels(bs, limit int) int {
	n, live, last := s.store.Len(), 0, -1
	for b := 0; b*storage.BlockRows < n && live < limit; b++ {
		if s.skipBlock(b) {
			continue
		}
		first := max(b*storage.BlockRows/bs, last+1)
		last = (min((b+1)*storage.BlockRows, n) - 1) / bs
		live += last - first + 1
	}
	return min(live, limit)
}

// projectable reports whether every projection expression is a plain column
// reference or constant: what a view seek can emit straight from its probe.
func projectable(exprs []expr.Expr) bool {
	for _, ex := range exprs {
		switch ex.(type) {
		case expr.Column, expr.Const:
		default:
			return false
		}
	}
	return true
}

// numRows is the bound of the ordinal space morsels are cut from: the
// store's physical length, dead rows included.
func (s *scanSource) numRows() int { return s.store.Len() }

// morselRids appends the ordinals of qualifying rows in [lo,hi) to out,
// walking the range block by block: a block the zone maps rule out is
// skipped; a block without tombstones — every block of a store nobody deleted
// from — is filtered as one live run; a block with some is filtered run by
// run, so no kernel ever tests for a dead row.
func (s *scanSource) morselRids(lo, hi int, sc *scanScratch, out []int32) ([]int32, error) {
	for i := lo; i < hi; {
		b := i / storage.BlockRows
		be := min((b+1)*storage.BlockRows, hi)
		if len(s.zones) > 0 && s.skipBlock(b) {
			sc.stats.BlocksSkipped++
			i = be
			continue
		}
		sc.stats.BlocksScanned++
		tombstones := s.store.BlockDead(b) != 0
		for i < be {
			end := be
			if tombstones {
				i, end = s.store.LiveRun(i, be)
			}
			if i < end {
				var err error
				if out, err = s.filter(i, end, sc, out); err != nil {
					return out, err
				}
			}
			i = end
		}
	}
	return out, nil
}

// MatchOrdinals returns the ordinals of the live rows of store that satisfy
// filter (nil: all of them), found the way a scan finds them — compiled
// column predicate, zone-map skipping, no row boxed. DELETE locates its
// victims with it. ok is false when it cannot stand in for evaluating the
// predicate row by row: some conjunct may fail or panic, and the caller's
// row-at-a-time path defines what that means.
func MatchOrdinals(store *storage.ColumnStore, filter expr.Expr) (ords []int, ok bool) {
	s, err := newScanSource(store, filter, nil)
	if err != nil || (s.pred != nil && !s.pred.safe) {
		return nil, false
	}
	var sc scanScratch
	rids, err := s.morselRids(0, store.Len(), &sc, nil)
	if err != nil {
		return nil, false
	}
	ords = make([]int, len(rids))
	for k, rid := range rids {
		ords[k] = int(rid)
	}
	return ords, true
}

// skipBlock reports whether block b provably contains no qualifying row:
// some predicate conjunct or join build constrains a column to an interval
// set that does not overlap the block's [Min,Max] zone (or the block is
// all-NULL on that column). The zones exist only when every conjunct is
// provably error- and panic-free, so skipping can never suppress a runtime
// error the reference evaluator would surface.
func (s *scanSource) skipBlock(b int) bool {
	for k := range s.zones {
		zc := &s.zones[k]
		z := s.store.Zone(zc.col, b)
		if !z.Tracked {
			continue
		}
		if !z.HasNonNull {
			// Every value is NULL: no comparison against the column holds.
			return true
		}
		blockRange := ranges.Range{
			Lo: ranges.Bound{Set: true, Val: z.Min},
			Hi: ranges.Bound{Set: true, Val: z.Max},
		}
		overlap := false
		for _, p := range zc.set.Parts() {
			if p.Overlaps(blockRange) {
				overlap = true
				break
			}
		}
		if !overlap {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Scan predicate compilation

// conjunct is one top-level AND term of a scan filter: a kernel over the
// block's typed arrays or, when the term is not vectorizable, the compiled
// row expression (gen) over a row holding the columns it reads.
type conjunct struct {
	kern     *kernel
	gen      expr.Compiled
	cols     []int // what gen reads
	inAnd    bool  // part of an AND: non-bool results panic like compiled And
	keepNull bool  // a later conjunct may fail: rows where this one is NULL stay, marked
}

// zoneConstraint is the interval set a column must intersect for any row of
// a block to qualify.
type zoneConstraint struct {
	col int
	set ranges.IntervalSet
}

// scanPred is a scan filter compiled against a store's column kinds, not
// its arrays: kernels address columns by index and read the arrays a
// scanSource binds, so one compilation serves every execution over a store
// of the same kinds, concurrent ones included.
type scanPred struct {
	kinds []sqlvalue.Kind // of the columns it was compiled against
	conj  []conjunct
	zones []zoneConstraint
	safe  bool // every conjunct provably error- and panic-free
	marks bool // some conjunct keeps its NULL rows
}

// colKinds returns the kinds of cols, what a filter compiles against.
func colKinds(cols []storage.ColView) []sqlvalue.Kind {
	kinds := make([]sqlvalue.Kind, len(cols))
	for c := range cols {
		kinds[c] = cols[c].Kind
	}
	return kinds
}

// fits reports whether p was compiled against columns of cols' kinds.
func (p *scanPred) fits(cols []storage.ColView) bool {
	if len(cols) != len(p.kinds) {
		return false
	}
	for c := range cols {
		if cols[c].Kind != p.kinds[c] {
			return false
		}
	}
	return true
}

// compileScanPred decomposes filter into top-level conjuncts, compiles the
// ones it can into kernels, classifies safety for zone skipping, and extracts
// per-column interval constraints, for columns of the given kinds. A filter
// that reads no column stays whole: expr.Compile folds it in one evaluation,
// whose panic conjuncts compiled one by one would not raise.
func compileScanPred(filter expr.Expr, kinds []sqlvalue.Kind) *scanPred {
	parts := []expr.Expr{filter}
	isAnd := false
	if a, ok := filter.(expr.And); ok && len(expr.Columns(filter)) > 0 {
		parts, isAnd = a.Args, true
	}
	p := &scanPred{kinds: kinds, safe: true, conj: make([]conjunct, len(parts))}
	for k := len(parts) - 1; k >= 0; k-- { // backwards: may a later conjunct fail?
		p.conj[k].keepNull = !p.safe
		p.marks = p.marks || !p.safe
		p.safe = p.safe && predSafe(parts[k], kinds)
	}
	for k, part := range parts { // forwards: a compile-time panic is the first part's
		cj := &p.conj[k]
		if kern, ok := compileKernel(part, kinds, cj.keepNull); ok {
			cj.kern = kern
			continue
		}
		cj.gen, cj.inAnd = expr.Compile(part), isAnd
		for _, ref := range expr.Columns(part) {
			if ref.Tab == 0 && ref.Col >= 0 && ref.Col < len(kinds) && !slices.Contains(cj.cols, ref.Col) {
				cj.cols = append(cj.cols, ref.Col)
			}
		}
	}
	if p.safe {
		p.zones = zoneConstraints(parts, len(kinds))
	}
	return p
}

// filter appends to out the rows of the live run [lo,hi) that satisfy the
// predicate, with expr.CompilePredicate's logic, errors and panics. The
// conjuncts run one at a time over the run, in their original order: the
// first turns it into a selection vector, each later one refines that in
// place. FALSE drops a row; so does NULL, unless a later conjunct may fail
// and must still see the row (marked, it is dropped at the end). A boxed
// conjunct failing on a row cuts the selection there, as no later row can
// matter, and a failure a later conjunct meets on an earlier row replaces
// it: the first in row order is reported.
func (s *scanSource) filter(lo, hi int, sc *scanScratch, out []int32) ([]int32, error) {
	p, start := s.pred, len(out)
	if p == nil {
		return appendRun(out, lo, hi), nil
	}
	if p.marks {
		sc.marks, sc.markBase = fill(sc.marks, hi-lo, false), lo
	}
	var fail scanFail
	for k := range p.conj {
		cj := &p.conj[k]
		if k == 0 {
			if cj.kern != nil && cj.kern.run != nil {
				out = cj.kern.run(s.cols, lo, hi, out)
				continue
			}
			out = appendRun(out, lo, hi)
		}
		sel := out[start:]
		if cj.kern != nil {
			sel = cj.kern.refine(s.cols, sel, sc)
		} else {
			sel = s.boxed(cj, sel, sc, &fail)
		}
		if out = out[:start+len(sel)]; len(sel) == 0 {
			break
		}
	}
	if fail.pval != nil {
		panic(fail.pval)
	}
	if fail.err != nil {
		return out[:start], fail.err
	}
	if p.marks {
		n := start
		for _, r := range out[start:] {
			out[n] = r
			if !sc.marks[int(r)-lo] {
				n++
			}
		}
		out = out[:n]
	}
	return out, nil
}

// scanFail is the first failure a scan predicate met on a run: an error, or
// the value of a panic.
type scanFail struct {
	err  error
	pval any
}

// boxed refines sel by a conjunct that is not vectorized, boxing for each
// row only the columns the conjunct reads. A failure on a row, error or
// panic, is recorded in fail and cuts sel there.
func (s *scanSource) boxed(cj *conjunct, sel []int32, sc *scanScratch, fail *scanFail) (kept []int32) {
	if len(sc.gather) != len(s.cols) { // a conjunct reads a column past the row as NULL
		sc.gather = make(storage.Row, len(s.cols))
	}
	n := 0
	defer func() {
		if p := recover(); p != nil {
			*fail, kept = scanFail{pval: p}, sel[:n]
		}
	}()
	for _, r := range sel {
		for _, c := range cj.cols {
			sc.gather[c] = s.cols[c].Value(int(r))
		}
		v, err := cj.gen(sc.gather)
		if err == nil && !v.IsNull() && v.Kind() != sqlvalue.KindBool {
			if cj.inAnd {
				// The compiled And calls Bool() on every non-NULL argument;
				// reproduce its panic exactly.
				_ = v.Bool()
			}
			err = fmt.Errorf("expr: predicate evaluated to %s", v.Kind())
		}
		switch {
		case err != nil:
			*fail = scanFail{err: err}
			return sel[:n]
		case v.IsNull():
			if !cj.keepNull {
				continue
			}
			sc.marks[int(r)-sc.markBase] = true
		case !v.Bool():
			continue
		}
		sel[n] = r
		n++
	}
	return sel[:n]
}

// appendRun appends the ordinals lo, …, hi-1 to out.
func appendRun(out []int32, lo, hi int) []int32 {
	start := len(out)
	out = slices.Grow(out, hi-lo)[:start+hi-lo]
	for k := range out[start:] {
		out[start+k] = int32(lo + k)
	}
	return out
}

// ---------------------------------------------------------------------------
// Kernels

// kernel is one vectorized conjunct over the columns a scan binds. refine
// keeps, in place, the rows of a selection where it holds (and, compiled to
// keep NULLs, those where it is NULL, marked); run, when set, is the same
// test over a live run [lo,hi), appended to out: the first conjunct's entry,
// with no selection to read. The run and the selection lie in one block.
type kernel struct {
	refine func(cols []storage.ColView, sel []int32, sc *scanScratch) []int32
	run    func(cols []storage.ColView, lo, hi int, out []int32) []int32
}

// compileKernel compiles a conjunct into a kernel when it is a comparison of
// static numeric or string sides, or IS [NOT] NULL over a column.
func compileKernel(e expr.Expr, kinds []sqlvalue.Kind, keep bool) (*kernel, bool) {
	switch n := e.(type) {
	case expr.Cmp:
		return cmpKernel(n, kinds, keep)
	case expr.IsNull:
		col, ok := n.E.(expr.Column)
		if !ok {
			return nil, false
		}
		if col.Ref.Tab != 0 || col.Ref.Col < 0 || col.Ref.Col >= len(kinds) {
			// The reference binds this to NULL: IS NULL is constantly true.
			return constKernel(!n.Negate, false, false), true
		}
		c, want := col.Ref.Col, !n.Negate
		return &kernel{refine: func(cols []storage.ColView, sel []int32, _ *scanScratch) []int32 {
			if len(sel) == 0 {
				return sel
			}
			nulls, base, k := inBlock(&cols[c], sel[0]).Nulls, blockBase(sel[0]), 0
			for _, r := range sel {
				sel[k] = r
				if bitSet(nulls, int(r-base)) == want {
					k++
				}
			}
			return sel[:k]
		}}, true
	}
	return nil, false
}

// constKernel is a conjunct with the same value on every row.
func constKernel(holds, null, keep bool) *kernel {
	return &kernel{refine: func(_ []storage.ColView, sel []int32, sc *scanScratch) []int32 {
		switch {
		case null && keep:
			for _, r := range sel {
				sc.marks[int(r)-sc.markBase] = true
			}
		case null || !holds:
			return sel[:0]
		}
		return sel
	}}
}

// cmpForm is a comparison as one of three tests and the outcome that keeps
// a row: LT and GE test a < b, GT and LE test a > b, EQ and NE test whether
// a and b differ. A NaN compares equal to everything, as in sqlvalue.Compare.
type cmpForm struct {
	test expr.CmpOp // LT, GT or NE
	want bool
}

var cmpForms = [...]cmpForm{expr.EQ: {expr.NE, false}, expr.NE: {expr.NE, true},
	expr.LT: {expr.LT, true}, expr.GE: {expr.LT, false}, expr.GT: {expr.GT, true}, expr.LE: {expr.GT, false}}

// cmpKernel compiles a comparison. A column against a constant of its own
// payload reads the column's array in place; any other pair of static sides
// evaluates both over the selection first.
func cmpKernel(n expr.Cmp, kinds []sqlvalue.Kind, keep bool) (*kernel, bool) {
	l, lok := compileVec(n.L, kinds)
	r, rok := compileVec(n.R, kinds)
	if !lok || !rok {
		return nil, false
	}
	// A NULL side, or statically incomparable kinds, make the comparison
	// constantly NULL (sqlvalue.Compare never errors).
	if l.kind == sqlvalue.KindNull || r.kind == sqlvalue.KindNull || (l.kind == sqlvalue.KindString) != (r.kind == sqlvalue.KindString) {
		return constKernel(false, true, keep), true
	}
	op := n.Op
	if l.op == vecConst && r.op == vecCol {
		l, r, op = r, l, op.Flip()
	}
	f := cmpForms[op]
	if l.op == vecCol && r.op == vecConst && !keep {
		switch {
		case l.kind == sqlvalue.KindString:
			return colConst(f, l.col, strsOf, r.c.Str()), true
		case l.kind == sqlvalue.KindFloat:
			if c, _ := r.c.AsFloat(); c == c { // a NaN constant takes the general path
				return colConst(f, l.col, floatsOf, c), true
			}
		case r.kind != sqlvalue.KindFloat:
			c, _ := valueFkey(r.c) // an INTEGER or DATE: {0, its int}
			return colConst(f, l.col, intsOf, c[1]), true
		}
	}
	asFloat := l.kind == sqlvalue.KindFloat || r.kind == sqlvalue.KindFloat
	return &kernel{refine: func(cols []storage.ColView, sel []int32, sc *scanScratch) []int32 {
		a := l.eval(cols, sel, &sc.vecs, 0, asFloat)
		b := r.eval(cols, sel, &sc.vecs, 1, asFloat)
		switch {
		case l.kind == sqlvalue.KindString:
			return keepCmp(f, a.strs, b.strs, a, b, sel, sc, keep)
		case asFloat:
			return keepCmp(f, a.floats, b.floats, a, b, sel, sc, keep)
		}
		return keepCmp(f, a.ints, b.ints, a, b, sel, sc, keep)
	}}, true
}

// keepCmp keeps, in place, the rows sel[k] where x[k] ⊙ y[k] holds, the
// values of the vecs a and b, and — when keep is set — the rows where one
// of them is NULL, marked.
func keepCmp[T cmp.Ordered](f cmpForm, x, y []T, a, b *vec, sel []int32, sc *scanScratch, keep bool) []int32 {
	n := 0
	for k, r := range sel {
		if a.isNull(k) || b.isNull(k) {
			if !keep {
				continue
			}
			sc.marks[int(r)-sc.markBase] = true
		} else if t := f.test; (t == expr.LT && x[k] < y[k] || t == expr.GT && x[k] > y[k] ||
			t == expr.NE && (x[k] < y[k] || x[k] > y[k])) != f.want {
			continue
		}
		sel[n] = r
		n++
	}
	return sel[:n]
}

// colConst is the kernel for column col against a constant of its payload
// type, read from the block's array through payload. Its loops write every
// row and advance over the ones that pass, so they carry no branch on the
// data; NULL rows are dropped after, and only where the block's null words
// have a bit set among the selected rows' words.
func colConst[T cmp.Ordered](f cmpForm, col int, payload func(*storage.Block) []T, c T) *kernel {
	return &kernel{
		run: func(cols []storage.ColView, lo, hi int, out []int32) []int32 {
			blk, base := inBlock(&cols[col], int32(lo)), blockBase(int32(lo))
			start := len(out)
			out = slices.Grow(out, hi-lo)[:start+hi-lo]
			n := runConst(f, payload(blk)[lo-int(base):hi-int(base)], c, int32(lo), out[start:])
			return out[:start+len(dropNulls(out[start:start+n], blk.Nulls, base))]
		},
		refine: func(cols []storage.ColView, sel []int32, _ *scanScratch) []int32 {
			if len(sel) == 0 {
				return sel
			}
			blk, base := inBlock(&cols[col], sel[0]), blockBase(sel[0])
			return dropNulls(selConst(f, payload(blk), c, sel, base), blk.Nulls, base)
		},
	}
}

func intsOf(b *storage.Block) []int64     { return b.Ints }
func floatsOf(b *storage.Block) []float64 { return b.Floats }
func strsOf(b *storage.Block) []string    { return b.Strs }

// inBlock returns the block of v holding row r; blockBase is that block's
// first row.
func inBlock(v *storage.ColView, r int32) *storage.Block { return blockOf(v.Full, v.Last, r) }

// blockOf is the block holding row r of a column whose blocks are full then
// last (ColView.Full, ColView.Last, copied into locals by a loop over rows).
func blockOf(full []*storage.Block, last *storage.Block, r int32) *storage.Block {
	if b := int(r) >> storage.BlockShift; b < len(full) {
		return full[b]
	}
	return last
}

func blockBase(r int32) int32 { return r &^ (storage.BlockRows - 1) }

// runConst writes to dst the ordinals base+k of the rows where a[k] ⊙ c
// holds and returns their count.
func runConst[T cmp.Ordered](f cmpForm, a []T, c T, base int32, dst []int32) int {
	n, want := 0, f.want
	dst = dst[:len(a)]
	switch f.test {
	case expr.LT:
		for k, x := range a {
			dst[n] = base + int32(k)
			if (x < c) == want {
				n++
			}
		}
	case expr.GT:
		for k, x := range a {
			dst[n] = base + int32(k)
			if (x > c) == want {
				n++
			}
		}
	default:
		for k, x := range a {
			dst[n] = base + int32(k)
			if (x != c && x == x) == want {
				n++
			}
		}
	}
	return n
}

// selConst keeps, in place, the rows r of sel where a[r-base] ⊙ c holds: a
// is the array of the block whose first row is base.
func selConst[T cmp.Ordered](f cmpForm, a []T, c T, sel []int32, base int32) []int32 {
	n, want := 0, f.want
	switch f.test {
	case expr.LT:
		for _, r := range sel {
			sel[n] = r
			if (a[r-base] < c) == want {
				n++
			}
		}
	case expr.GT:
		for _, r := range sel {
			sel[n] = r
			if (a[r-base] > c) == want {
				n++
			}
		}
	default:
		for _, r := range sel {
			sel[n] = r
			if x := a[r-base]; (x != c && x == x) == want {
				n++
			}
		}
	}
	return sel[:n]
}

// dropNulls removes, in place, the rows of sel whose bit is set in nulls,
// the null words of the block whose first row is base.
func dropNulls(sel []int32, nulls []uint64, base int32) []int32 {
	if len(sel) == 0 || nulls == nil {
		return sel
	}
	set := false
	for w := int(sel[0]-base) >> 6; w <= int(sel[len(sel)-1]-base)>>6 && w < len(nulls); w++ {
		set = set || nulls[w] != 0
	}
	if !set {
		return sel
	}
	n := 0
	for _, r := range sel {
		sel[n] = r
		if !bitSet(nulls, int(r-base)) {
			n++
		}
	}
	return sel[:n]
}

// ---------------------------------------------------------------------------
// Static expressions over typed columns

type vecOp uint8

const (
	vecCol vecOp = iota
	vecConst
	vecArith
	vecNeg
	vecAbs
)

// vecExpr is an expression with a statically known result kind over typed
// columns of known kinds, read from the columns eval is handed: a column, a
// constant, or a numeric chain of arithmetic, negation and ABS over them.
// Kind NULL is NULL on every row: a NULL constant, a column out of range
// (the reference binds it to NULL) or one that has only ever held NULL.
// Chains are error- and panic-free by construction: columns are typed,
// constants numeric, and only operations that cannot fail on numeric inputs
// are admitted (division by zero yields NULL, as sqlvalue.Div does). A
// string is a column or a constant.
type vecExpr struct {
	kind sqlvalue.Kind // KindInt, KindDate, KindFloat, KindString or KindNull
	op   vecOp
	aop  expr.ArithOp   // of vecArith
	col  int            // of vecCol: the index of the column eval reads
	c    sqlvalue.Value // of vecConst
	l, r *vecExpr       // operands; l alone for vecNeg and vecAbs
}

func (x *vecExpr) numeric() bool { return x.kind != sqlvalue.KindString && x.kind != sqlvalue.KindNull }

// compileVec compiles e over columns of the given kinds when its result kind
// is static.
func compileVec(e expr.Expr, kinds []sqlvalue.Kind) (*vecExpr, bool) {
	switch n := e.(type) {
	case expr.Const:
		switch k := n.Val.Kind(); k {
		case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindFloat, sqlvalue.KindString, sqlvalue.KindNull:
			return &vecExpr{kind: k, op: vecConst, c: n.Val}, true
		}
	case expr.Column:
		if n.Ref.Tab != 0 || n.Ref.Col < 0 || n.Ref.Col >= len(kinds) {
			return &vecExpr{kind: sqlvalue.KindNull, op: vecConst}, true
		}
		switch k := kinds[n.Ref.Col]; k {
		case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindFloat, sqlvalue.KindString, sqlvalue.KindNull:
			return &vecExpr{kind: k, op: vecCol, col: n.Ref.Col}, true
		}
	case expr.Arith:
		l, lok := compileVec(n.L, kinds)
		r, rok := compileVec(n.R, kinds)
		if !lok || !rok || !l.numeric() || !r.numeric() || n.Op > expr.Div {
			return nil, false
		}
		// sqlvalue.arith: Int op Int stays integral except division; any
		// Date or Float operand promotes the whole operation to float.
		kind := sqlvalue.KindFloat
		if l.kind == sqlvalue.KindInt && r.kind == sqlvalue.KindInt && n.Op != expr.Div {
			kind = sqlvalue.KindInt
		}
		return &vecExpr{kind: kind, op: vecArith, aop: n.Op, l: l, r: r}, true
	case expr.Neg:
		return unaryVec(vecNeg, n.E, kinds)
	case expr.Func:
		if (n.Name == "ABS" || n.Name == "abs") && len(n.Args) == 1 {
			return unaryVec(vecAbs, n.Args[0], kinds)
		}
	}
	return nil, false
}

// unaryVec compiles negation or ABS, which sqlvalue refuses on a DATE.
func unaryVec(op vecOp, e expr.Expr, kinds []sqlvalue.Kind) (*vecExpr, bool) {
	a, ok := compileVec(e, kinds)
	if !ok || (a.kind != sqlvalue.KindInt && a.kind != sqlvalue.KindFloat) {
		return nil, false
	}
	return &vecExpr{kind: a.kind, op: op, l: a}, true
}

// vec is a vecExpr's value at each row of a selection: ints (INTEGER,
// DATE), floats or strs by kind, and null[k] when row k's value is NULL
// (null is nil when none is). The next eval into the vec reuses its buffers.
type vec struct {
	ints    []int64
	floats  []float64
	strs    []string
	null    []bool
	nullBuf []bool
}

func (v *vec) isNull(k int) bool { return v.null != nil && v.null[k] }

// nulls returns v.null, made all-false first if it was nil.
func (v *vec) nulls(n int) []bool {
	if v.null == nil {
		v.nullBuf = fill(v.nullBuf, n, false)
		v.null = v.nullBuf
	}
	return v.null
}

// vecStack is one worker's vecs: eval at depth d writes the d-th and uses
// the ones after it as scratch.
type vecStack []*vec

func (vs *vecStack) at(d int) *vec {
	for len(*vs) <= d {
		*vs = append(*vs, new(vec))
	}
	return (*vs)[d]
}

// eval computes x at each of rids of the columns cols into vs.at(d): as
// floats when asFloat, in x's own representation otherwise.
func (x *vecExpr) eval(cols []storage.ColView, rids []int32, vs *vecStack, d int, asFloat bool) *vec {
	out, n := vs.at(d), len(rids)
	out.null = nil
	switch x.op {
	case vecCol:
		// A block is looked up only where the rids leave the last one: a
		// scan's rids run through one block before the next.
		const mask = storage.BlockRows - 1
		col := &cols[x.col]
		full, last := col.Full, col.Last
		blk, base := last, int32(-1)
		at := func(r int32) int32 {
			if b := r &^ mask; b != base {
				base, blk = b, blockOf(full, last, r)
			}
			return r - base
		}
		switch x.kind {
		case sqlvalue.KindString:
			out.strs = slices.Grow(out.strs[:0], n)[:n]
			for k, r := range rids {
				j := at(r)
				out.strs[k] = blk.Strs[j]
			}
		case sqlvalue.KindFloat:
			out.floats = slices.Grow(out.floats[:0], n)[:n]
			for k, r := range rids {
				j := at(r)
				out.floats[k] = blk.Floats[j]
			}
		default:
			out.ints = slices.Grow(out.ints[:0], n)[:n]
			for k, r := range rids {
				j := at(r)
				out.ints[k] = blk.Ints[j]
			}
		}
		if col.Nullable() {
			null := out.nulls(n)
			for k, r := range rids {
				j := at(r)
				null[k] = bitSet(blk.Nulls, int(j))
			}
		}
	case vecConst:
		switch x.kind {
		case sqlvalue.KindString:
			out.strs = fill(out.strs, n, x.c.Str())
		case sqlvalue.KindFloat:
			out.floats = fill(out.floats, n, x.c.Float())
		default:
			c, _ := valueFkey(x.c)
			out.ints = fill(out.ints, n, c[1])
		}
	case vecNeg, vecAbs:
		x.l.eval(cols, rids, vs, d, false)
		if x.kind == sqlvalue.KindFloat {
			unary(x.op, out.floats)
		} else {
			unary(x.op, out.ints)
		}
	case vecArith:
		float := x.kind == sqlvalue.KindFloat
		x.l.eval(cols, rids, vs, d, float)
		b := x.r.eval(cols, rids, vs, d+1, float)
		if b.null != nil {
			null := out.nulls(n)
			for k := range null {
				null[k] = null[k] || b.null[k]
			}
		}
		switch {
		case x.aop == expr.Div:
			null := out.nulls(n)
			for k, v := range b.floats[:n] {
				if v == 0 {
					null[k] = true // division by zero yields NULL
				} else {
					out.floats[k] /= v
				}
			}
		case float:
			arith(x.aop, out.floats, b.floats)
		default:
			arith(x.aop, out.ints, b.ints)
		}
	}
	if asFloat && x.kind != sqlvalue.KindFloat {
		out.floats = slices.Grow(out.floats[:0], n)[:n]
		for k, v := range out.ints[:n] {
			out.floats[k] = float64(v)
		}
	}
	return out
}

func fill[T any](dst []T, n int, c T) []T {
	dst = slices.Grow(dst[:0], n)[:n]
	for k := range dst {
		dst[k] = c
	}
	return dst
}

func arith[T int64 | float64](op expr.ArithOp, a, b []T) {
	b = b[:len(a)]
	switch op {
	case expr.Add:
		for k := range a {
			a[k] += b[k]
		}
	case expr.Sub:
		for k := range a {
			a[k] -= b[k]
		}
	case expr.Mul:
		for k := range a {
			a[k] *= b[k]
		}
	}
}

// unary negates a, or takes its absolute value the way absValue does: only a
// strictly negative value is negated, so ABS(-0.0) stays -0.0.
func unary[T int64 | float64](op vecOp, a []T) {
	for k, v := range a {
		if op == vecNeg || v < 0 {
			a[k] = -v
		}
	}
}

// ---------------------------------------------------------------------------
// Skip safety and zone constraints

// isLeaf reports whether e is a bare column reference or constant — shapes
// whose evaluation can never error or panic.
func isLeaf(e expr.Expr) bool {
	switch e.(type) {
	case expr.Column, expr.Const:
		return true
	}
	return false
}

// sideSafe reports whether a comparison side is provably error- and
// panic-free: a leaf (Compare never errors on any value pair) or a static
// numeric chain.
func sideSafe(e expr.Expr, kinds []sqlvalue.Kind) bool {
	if isLeaf(e) {
		return true
	}
	x, ok := compileVec(e, kinds)
	return ok && x.numeric()
}

// predSafe reports whether evaluating e can neither error nor panic and
// always yields a boolean or NULL — the precondition for zone skipping: a
// skipped block must not suppress a runtime failure the reference evaluator
// would surface, and AND/OR/NOT over e must not hit a non-bool panic.
func predSafe(e expr.Expr, kinds []sqlvalue.Kind) bool {
	switch n := e.(type) {
	case expr.Const:
		k := n.Val.Kind()
		return k == sqlvalue.KindBool || k == sqlvalue.KindNull
	case expr.Cmp:
		return sideSafe(n.L, kinds) && sideSafe(n.R, kinds)
	case expr.IsNull:
		return isLeaf(n.E)
	case expr.Like:
		return isLeaf(n.E) && isLeaf(n.Pattern)
	case expr.Not:
		return predSafe(n.E, kinds)
	case expr.And:
		for _, a := range n.Args {
			if !predSafe(a, kinds) {
				return false
			}
		}
		return true
	case expr.Or:
		for _, a := range n.Args {
			if !predSafe(a, kinds) {
				return false
			}
		}
		return true
	}
	return false
}

// conjunctConstraint extracts the interval set a single conjunct imposes on
// one in-range column: a range conjunct (expr.Classify's col⊙const, which
// leaves out NE and NULL constants) directly, or an OR of range conjuncts
// over the same column (IN-list shape) as the union of their ranges.
func conjunctConstraint(e expr.Expr, ncols int) (int, ranges.IntervalSet, bool) {
	args := []expr.Expr{e}
	if or, ok := e.(expr.Or); ok {
		args = or.Args
	}
	col, set := -1, ranges.IntervalSet{}
	for _, arg := range args {
		kind, _, rc := expr.Classify(arg)
		if kind != expr.KindRange || rc.Col.Tab != 0 || rc.Col.Col < 0 || rc.Col.Col >= ncols || col >= 0 && rc.Col.Col != col {
			return 0, ranges.IntervalSet{}, false
		}
		r, applied := ranges.Universal().Apply(rc.Op, rc.Val)
		if f, _ := rc.Val.AsFloat(); !applied || f != f { // a NaN compares equal to everything
			return 0, ranges.IntervalSet{}, false
		}
		col, set = rc.Col.Col, set.Add(r)
	}
	return col, set, col >= 0
}

// zoneConstraints intersects the constraints all conjuncts impose, per
// column, ordered by column for determinism.
func zoneConstraints(parts []expr.Expr, ncols int) []zoneConstraint {
	perCol := map[int]ranges.IntervalSet{}
	var order []int
	for _, part := range parts {
		col, set, ok := conjunctConstraint(part, ncols)
		if !ok {
			continue
		}
		if prev, seen := perCol[col]; seen {
			perCol[col] = prev.IntersectSet(set)
		} else {
			perCol[col] = set
			order = append(order, col)
		}
	}
	out := make([]zoneConstraint, 0, len(order))
	for _, col := range order {
		out = append(out, zoneConstraint{col: col, set: perCol[col]})
	}
	return out
}
