package exec

import (
	"fmt"
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
// counters are probe-side tuples entering a hash-join probe, tuples whose key
// found at least one build match, and rows the gather sink boxed out of
// column stores; the gap between probed and gathered is the work late
// materialization avoids. Workers count in their scanScratch and flush once
// per morsel; gathered rows are added once per pipeline.
var scanLedger struct {
	blocksScanned, blocksSkipped, rowsProbed, rowsMatched, rowsGathered atomic.Int64
}

// ScanStats is a snapshot of the columnar scan and join counters.
type ScanStats struct {
	BlocksScanned int64 `json:"blocks_scanned"`
	BlocksSkipped int64 `json:"blocks_skipped"`
	RowsProbed    int64 `json:"rows_probed"`
	RowsMatched   int64 `json:"rows_matched"`
	RowsGathered  int64 `json:"rows_gathered"`
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
	}
}

// ResetScanStats zeroes the scan and join counters (benchmarks and tests).
func ResetScanStats() {
	l := &scanLedger
	for _, c := range []*atomic.Int64{&l.blocksScanned, &l.blocksSkipped, &l.rowsProbed, &l.rowsMatched, &l.rowsGathered} {
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
// the row a non-vectorizable predicate conjunct is evaluated over, and the
// worker's counts for the current morsel.
type scanScratch struct {
	stats  ScanStats
	gather storage.Row
	rids   []int32
	batch  ridBatch
	sel    [1][]int32 // batch's selection-vector header
}

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

// makeEmitter builds the emitter reading a column's physical arrays.
func makeEmitter(v storage.ColView) colEmitter {
	nulls := v.Nulls
	switch v.Kind {
	case sqlvalue.KindInt:
		a := v.Ints
		if nulls == nil {
			return func(i int) sqlvalue.Value { return sqlvalue.NewInt(a[i]) }
		}
		return func(i int) sqlvalue.Value {
			if bitSet(nulls, i) {
				return sqlvalue.Null
			}
			return sqlvalue.NewInt(a[i])
		}
	case sqlvalue.KindDate:
		a := v.Ints
		if nulls == nil {
			return func(i int) sqlvalue.Value { return sqlvalue.NewDate(a[i]) }
		}
		return func(i int) sqlvalue.Value {
			if bitSet(nulls, i) {
				return sqlvalue.Null
			}
			return sqlvalue.NewDate(a[i])
		}
	case sqlvalue.KindBool:
		a := v.Ints
		if nulls == nil {
			return func(i int) sqlvalue.Value { return sqlvalue.NewBool(a[i] != 0) }
		}
		return func(i int) sqlvalue.Value {
			if bitSet(nulls, i) {
				return sqlvalue.Null
			}
			return sqlvalue.NewBool(a[i] != 0)
		}
	case sqlvalue.KindFloat:
		a := v.Floats
		if nulls == nil {
			return func(i int) sqlvalue.Value { return sqlvalue.NewFloat(a[i]) }
		}
		return func(i int) sqlvalue.Value {
			if bitSet(nulls, i) {
				return sqlvalue.Null
			}
			return sqlvalue.NewFloat(a[i])
		}
	case sqlvalue.KindString:
		a := v.Strs
		if nulls == nil {
			return func(i int) sqlvalue.Value { return sqlvalue.NewString(a[i]) }
		}
		return func(i int) sqlvalue.Value {
			if bitSet(nulls, i) {
				return sqlvalue.Null
			}
			return sqlvalue.NewString(a[i])
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
// nothing is materialized — a morsel is the ordinals that qualified.
type scanSource struct {
	store *storage.ColumnStore
	cols  []storage.ColView
	pred  *scanPred
	zones []zoneConstraint // what the zone maps are tested against; only when pred is nil or safe
}

func newScanSource(store *storage.ColumnStore, filter expr.Expr) (*scanSource, error) {
	if err := checkRid(store.Len()); err != nil {
		return nil, err
	}
	s := &scanSource{store: store, cols: make([]storage.ColView, store.NumCols())}
	for c := range s.cols {
		s.cols[c] = store.Col(c)
	}
	if filter != nil {
		s.pred = compileScanPred(filter, s.cols, len(s.cols))
		s.zones = s.pred.zones
	}
	return s, nil
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
		s.zones = append(s.zones, zoneConstraint{col: c, set: set})
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
// from — runs the row loop once over its whole range; a block with some runs
// it once per run of live rows, so the row loop itself never tests for a dead
// row.
func (s *scanSource) morselRids(lo, hi int, sc *scanScratch, out []int32) ([]int32, error) {
	pred := s.pred
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
			for ; i < end; i++ {
				if pred != nil {
					ok, err := pred.eval(i, s, sc)
					if err != nil {
						return out, err
					}
					if !ok {
						continue
					}
				}
				out = append(out, int32(i))
			}
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
	s, err := newScanSource(store, filter)
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

// Three-valued logic results of a vectorized conjunct.
const (
	triFalse uint8 = iota
	triTrue
	triNull
)

// triFn evaluates one conjunct against row ordinal i.
type triFn func(i int) uint8

// conjunct is one top-level AND term of a scan filter. Vectorized conjuncts
// (vec) read column arrays directly; the rest fall back to the compiled
// row-expression (gen) over a gathered row.
type conjunct struct {
	vec   triFn
	gen   expr.Compiled
	inAnd bool // part of an AND: non-bool results panic like compiled And
}

// zoneConstraint is the interval set a column must intersect for any row of
// a block to qualify.
type zoneConstraint struct {
	col int
	set ranges.IntervalSet
}

type scanPred struct {
	conj  []conjunct
	zones []zoneConstraint
	safe  bool // every conjunct provably error- and panic-free
}

// box fills sc.gather with row i, for the conjuncts that run over a boxed
// row. It is kept out of eval so that eval's frame, entered once per row,
// stays small.
func (s *scanSource) box(i int, sc *scanScratch) {
	if sc.gather == nil {
		sc.gather = make(storage.Row, len(s.cols))
	}
	for c := range s.cols {
		sc.gather[c] = s.cols[c].Value(i)
	}
}

// eval applies the predicate to row i with the exact three-valued-logic,
// error, and panic behavior of expr.CompilePredicate over the same filter:
// conjuncts evaluate in original order, FALSE short-circuits, NULL does not.
func (p *scanPred) eval(i int, s *scanSource, sc *scanScratch) (bool, error) {
	sawNull := false
	gathered := false
	for k := range p.conj {
		cj := &p.conj[k]
		if cj.vec != nil {
			switch cj.vec(i) {
			case triFalse:
				return false, nil
			case triNull:
				sawNull = true
			}
			continue
		}
		if !gathered {
			s.box(i, sc)
			gathered = true
		}
		v, err := cj.gen(sc.gather)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		if v.Kind() != sqlvalue.KindBool {
			if cj.inAnd {
				// The compiled And calls Bool() on every non-NULL argument;
				// reproduce its panic exactly.
				_ = v.Bool()
			}
			return false, fmt.Errorf("expr: predicate evaluated to %s", v.Kind())
		}
		if !v.Bool() {
			return false, nil
		}
	}
	if sawNull {
		return false, nil
	}
	return true, nil
}

// compileScanPred decomposes filter into top-level conjuncts, vectorizes the
// ones it can, classifies safety for zone skipping, and extracts per-column
// interval constraints.
func compileScanPred(filter expr.Expr, cols []storage.ColView, ncols int) *scanPred {
	parts := []expr.Expr{filter}
	isAnd := false
	if a, ok := filter.(expr.And); ok {
		parts = a.Args
		isAnd = true
	}
	p := &scanPred{safe: true}
	for _, part := range parts {
		cj := conjunct{inAnd: isAnd}
		if vec, ok := vecPredicate(part, cols, ncols); ok {
			cj.vec = vec
		} else {
			cj.gen = expr.Compile(part)
		}
		if !predSafe(part, cols, ncols) {
			p.safe = false
		}
		p.conj = append(p.conj, cj)
	}
	if p.safe {
		p.zones = zoneConstraints(parts, ncols)
	}
	return p
}

// ---------------------------------------------------------------------------
// Vectorized conjuncts

// Static value classes of a comparison side.
const (
	classNone uint8 = iota // not statically classifiable (or may error)
	classNum               // numeric chain: Int, Date, or Float result kind
	classStr               // string column or constant
	classNull              // constant NULL (invalid or all-NULL column)
)

// numChain is a compiled arithmetic chain with a statically known result
// kind. Chains are error- and panic-free by construction: columns are typed,
// constants numeric, and only operations that cannot fail on numeric inputs
// are admitted (division by zero yields NULL, as sqlvalue.Div does).
type numChain struct {
	kind sqlvalue.Kind               // KindInt, KindDate, or KindFloat
	gi   func(i int) (int64, bool)   // non-float chains; bool = NULL
	gf   func(i int) (float64, bool) // float chains
}

func (n numChain) float() func(i int) (float64, bool) {
	if n.gf != nil {
		return n.gf
	}
	gi := n.gi
	return func(i int) (float64, bool) {
		v, null := gi(i)
		return float64(v), null
	}
}

// vecNum compiles e into a numeric chain when its result kind is static.
func vecNum(e expr.Expr, cols []storage.ColView, ncols int) (numChain, bool) {
	switch n := e.(type) {
	case expr.Const:
		switch n.Val.Kind() {
		case sqlvalue.KindInt:
			c := n.Val.Int()
			return numChain{kind: sqlvalue.KindInt, gi: func(int) (int64, bool) { return c, false }}, true
		case sqlvalue.KindDate:
			c := n.Val.DateDays()
			return numChain{kind: sqlvalue.KindDate, gi: func(int) (int64, bool) { return c, false }}, true
		case sqlvalue.KindFloat:
			c := n.Val.Float()
			return numChain{kind: sqlvalue.KindFloat, gf: func(int) (float64, bool) { return c, false }}, true
		}
		return numChain{}, false
	case expr.Column:
		if n.Ref.Tab != 0 || n.Ref.Col < 0 || n.Ref.Col >= ncols {
			return numChain{}, false // binds to NULL; handled by classNull
		}
		v := cols[n.Ref.Col]
		nulls := v.Nulls
		switch v.Kind {
		case sqlvalue.KindInt, sqlvalue.KindDate:
			a := v.Ints
			if nulls == nil {
				return numChain{kind: v.Kind, gi: func(i int) (int64, bool) { return a[i], false }}, true
			}
			return numChain{kind: v.Kind, gi: func(i int) (int64, bool) {
				if bitSet(nulls, i) {
					return 0, true
				}
				return a[i], false
			}}, true
		case sqlvalue.KindFloat:
			a := v.Floats
			if nulls == nil {
				return numChain{kind: sqlvalue.KindFloat, gf: func(i int) (float64, bool) { return a[i], false }}, true
			}
			return numChain{kind: sqlvalue.KindFloat, gf: func(i int) (float64, bool) {
				if bitSet(nulls, i) {
					return 0, true
				}
				return a[i], false
			}}, true
		}
		return numChain{}, false
	case expr.Arith:
		l, ok := vecNum(n.L, cols, ncols)
		if !ok {
			return numChain{}, false
		}
		r, ok := vecNum(n.R, cols, ncols)
		if !ok {
			return numChain{}, false
		}
		// sqlvalue.arith: Int op Int stays integral except division; any
		// Date or Float operand promotes the whole operation to float.
		if l.kind == sqlvalue.KindInt && r.kind == sqlvalue.KindInt && n.Op != expr.Div {
			li, ri := l.gi, r.gi
			var gi func(i int) (int64, bool)
			switch n.Op {
			case expr.Add:
				gi = func(i int) (int64, bool) {
					a, an := li(i)
					if an {
						return 0, true
					}
					b, bn := ri(i)
					if bn {
						return 0, true
					}
					return a + b, false
				}
			case expr.Sub:
				gi = func(i int) (int64, bool) {
					a, an := li(i)
					if an {
						return 0, true
					}
					b, bn := ri(i)
					if bn {
						return 0, true
					}
					return a - b, false
				}
			case expr.Mul:
				gi = func(i int) (int64, bool) {
					a, an := li(i)
					if an {
						return 0, true
					}
					b, bn := ri(i)
					if bn {
						return 0, true
					}
					return a * b, false
				}
			default:
				return numChain{}, false
			}
			return numChain{kind: sqlvalue.KindInt, gi: gi}, true
		}
		lf, rf := l.float(), r.float()
		var gf func(i int) (float64, bool)
		switch n.Op {
		case expr.Add:
			gf = func(i int) (float64, bool) {
				a, an := lf(i)
				if an {
					return 0, true
				}
				b, bn := rf(i)
				if bn {
					return 0, true
				}
				return a + b, false
			}
		case expr.Sub:
			gf = func(i int) (float64, bool) {
				a, an := lf(i)
				if an {
					return 0, true
				}
				b, bn := rf(i)
				if bn {
					return 0, true
				}
				return a - b, false
			}
		case expr.Mul:
			gf = func(i int) (float64, bool) {
				a, an := lf(i)
				if an {
					return 0, true
				}
				b, bn := rf(i)
				if bn {
					return 0, true
				}
				return a * b, false
			}
		case expr.Div:
			gf = func(i int) (float64, bool) {
				a, an := lf(i)
				if an {
					return 0, true
				}
				b, bn := rf(i)
				if bn || b == 0 {
					return 0, true // division by zero yields NULL
				}
				return a / b, false
			}
		default:
			return numChain{}, false
		}
		return numChain{kind: sqlvalue.KindFloat, gf: gf}, true
	case expr.Neg:
		a, ok := vecNum(n.E, cols, ncols)
		// sqlvalue.Neg errors on DATE, so a Date chain is not negatable.
		if !ok || a.kind == sqlvalue.KindDate {
			return numChain{}, false
		}
		if a.kind == sqlvalue.KindInt {
			gi := a.gi
			return numChain{kind: sqlvalue.KindInt, gi: func(i int) (int64, bool) {
				v, null := gi(i)
				return -v, null
			}}, true
		}
		gf := a.gf
		return numChain{kind: sqlvalue.KindFloat, gf: func(i int) (float64, bool) {
			v, null := gf(i)
			return -v, null
		}}, true
	case expr.Func:
		if (n.Name != "ABS" && n.Name != "abs") || len(n.Args) != 1 {
			return numChain{}, false
		}
		a, ok := vecNum(n.Args[0], cols, ncols)
		// absValue errors on DATE.
		if !ok || a.kind == sqlvalue.KindDate {
			return numChain{}, false
		}
		if a.kind == sqlvalue.KindInt {
			gi := a.gi
			return numChain{kind: sqlvalue.KindInt, gi: func(i int) (int64, bool) {
				v, null := gi(i)
				if v < 0 {
					v = -v
				}
				return v, null
			}}, true
		}
		gf := a.gf
		return numChain{kind: sqlvalue.KindFloat, gf: func(i int) (float64, bool) {
			v, null := gf(i)
			// Match absValue: only strictly negative values are negated, so
			// ABS(-0.0) stays -0.0 and rendering is byte-identical.
			if v < 0 {
				v = -v
			}
			return v, null
		}}, true
	}
	return numChain{}, false
}

// vecStr compiles e into a string getter when it is a string column or
// constant; bool result = NULL.
func vecStr(e expr.Expr, cols []storage.ColView, ncols int) (func(i int) (string, bool), bool) {
	switch n := e.(type) {
	case expr.Const:
		if n.Val.Kind() == sqlvalue.KindString {
			s := n.Val.Str()
			return func(int) (string, bool) { return s, false }, true
		}
		return nil, false
	case expr.Column:
		if n.Ref.Tab != 0 || n.Ref.Col < 0 || n.Ref.Col >= ncols {
			return nil, false
		}
		v := cols[n.Ref.Col]
		if v.Kind != sqlvalue.KindString {
			return nil, false
		}
		a := v.Strs
		nulls := v.Nulls
		if nulls == nil {
			return func(i int) (string, bool) { return a[i], false }, true
		}
		return func(i int) (string, bool) {
			if bitSet(nulls, i) {
				return "", true
			}
			return a[i], false
		}, true
	}
	return nil, false
}

// sideClass classifies one comparison side for vectorization.
func sideClass(e expr.Expr, cols []storage.ColView, ncols int) uint8 {
	switch n := e.(type) {
	case expr.Const:
		if n.Val.IsNull() {
			return classNull
		}
	case expr.Column:
		if n.Ref.Tab != 0 || n.Ref.Col < 0 || n.Ref.Col >= ncols {
			return classNull // binds to NULL
		}
		if cols[n.Ref.Col].Kind == sqlvalue.KindNull {
			return classNull // column has only ever held NULL
		}
	}
	if _, ok := vecNum(e, cols, ncols); ok {
		return classNum
	}
	if _, ok := vecStr(e, cols, ncols); ok {
		return classStr
	}
	return classNone
}

func triOf(b bool) uint8 {
	if b {
		return triTrue
	}
	return triFalse
}

// cmpSatisfied mirrors expr's cmpSatisfies.
func cmpSatisfied(op expr.CmpOp, cmp int) bool {
	switch op {
	case expr.EQ:
		return cmp == 0
	case expr.NE:
		return cmp != 0
	case expr.LT:
		return cmp < 0
	case expr.LE:
		return cmp <= 0
	case expr.GT:
		return cmp > 0
	case expr.GE:
		return cmp >= 0
	}
	return false
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// vecPredicate vectorizes a conjunct when possible: comparisons over static
// numeric/string chains and IS [NOT] NULL over a column.
func vecPredicate(e expr.Expr, cols []storage.ColView, ncols int) (triFn, bool) {
	switch n := e.(type) {
	case expr.Cmp:
		return vecCmp(n, cols, ncols)
	case expr.IsNull:
		col, ok := n.E.(expr.Column)
		if !ok {
			return nil, false
		}
		negate := n.Negate
		if col.Ref.Tab != 0 || col.Ref.Col < 0 || col.Ref.Col >= ncols {
			// The reference binds this to NULL: IS NULL is constantly true.
			res := triOf(!negate)
			return func(int) uint8 { return res }, true
		}
		v := cols[col.Ref.Col]
		if negate {
			return func(i int) uint8 { return triOf(!v.IsNull(i)) }, true
		}
		return func(i int) uint8 { return triOf(v.IsNull(i)) }, true
	}
	return nil, false
}

func vecCmp(n expr.Cmp, cols []storage.ColView, ncols int) (triFn, bool) {
	op := n.Op
	lc := sideClass(n.L, cols, ncols)
	if lc == classNone {
		return nil, false
	}
	rc := sideClass(n.R, cols, ncols)
	if rc == classNone {
		return nil, false
	}
	// A NULL side, or statically incomparable kinds, make the comparison
	// constantly NULL (sqlvalue.Compare never errors).
	if lc == classNull || rc == classNull || lc != rc {
		return func(int) uint8 { return triNull }, true
	}
	if lc == classStr {
		ls, _ := vecStr(n.L, cols, ncols)
		rs, _ := vecStr(n.R, cols, ncols)
		return func(i int) uint8 {
			a, an := ls(i)
			if an {
				return triNull
			}
			b, bn := rs(i)
			if bn {
				return triNull
			}
			return triOf(cmpSatisfied(op, stringsCompare(a, b)))
		}, true
	}
	ln, _ := vecNum(n.L, cols, ncols)
	rn, _ := vecNum(n.R, cols, ncols)
	// sqlvalue.Compare compares two non-float numerics on their integral
	// payloads (avoiding float rounding on big keys); any float side makes
	// it a float comparison.
	if ln.kind != sqlvalue.KindFloat && rn.kind != sqlvalue.KindFloat {
		li, ri := ln.gi, rn.gi
		return func(i int) uint8 {
			a, an := li(i)
			if an {
				return triNull
			}
			b, bn := ri(i)
			if bn {
				return triNull
			}
			return triOf(cmpSatisfied(op, cmpInt(a, b)))
		}, true
	}
	lf, rf := ln.float(), rn.float()
	return func(i int) uint8 {
		a, an := lf(i)
		if an {
			return triNull
		}
		b, bn := rf(i)
		if bn {
			return triNull
		}
		return triOf(cmpSatisfied(op, cmpFloat(a, b)))
	}, true
}

func stringsCompare(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
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
func sideSafe(e expr.Expr, cols []storage.ColView, ncols int) bool {
	if isLeaf(e) {
		return true
	}
	_, ok := vecNum(e, cols, ncols)
	return ok
}

// predSafe reports whether evaluating e can neither error nor panic and
// always yields a boolean or NULL — the precondition for zone skipping: a
// skipped block must not suppress a runtime failure the reference evaluator
// would surface, and AND/OR/NOT over e must not hit a non-bool panic.
func predSafe(e expr.Expr, cols []storage.ColView, ncols int) bool {
	switch n := e.(type) {
	case expr.Const:
		k := n.Val.Kind()
		return k == sqlvalue.KindBool || k == sqlvalue.KindNull
	case expr.Cmp:
		return sideSafe(n.L, cols, ncols) && sideSafe(n.R, cols, ncols)
	case expr.IsNull:
		return isLeaf(n.E)
	case expr.Like:
		return isLeaf(n.E) && isLeaf(n.Pattern)
	case expr.Not:
		return predSafe(n.E, cols, ncols)
	case expr.And:
		for _, a := range n.Args {
			if !predSafe(a, cols, ncols) {
				return false
			}
		}
		return true
	case expr.Or:
		for _, a := range n.Args {
			if !predSafe(a, cols, ncols) {
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
		if !applied {
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
