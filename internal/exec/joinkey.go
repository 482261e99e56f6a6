package exec

import (
	"math"

	"matview/internal/expr"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// Typed join keys.
//
// The equality classes here reproduce sqlvalue.AppendKey exactly, so typed
// and boxed keying are interchangeable: bools, ints, and dates share one
// int64 key space (AppendKey encodes all three as decimal ints), integral
// floats (f == Trunc(f), |f| < 1e15) collapse into that int space, other
// floats key by their bit pattern with every NaN collapsed to one canonical
// key (AppendKey formats all NaNs as "NaN"), and strings key by their bytes.
// NULL never produces a key on either side.
//
// The key mode is chosen from the BUILD side's static column kinds only —
// the build pipeline runs to completion before the probe side is even
// decomposed, matching the reference evaluator's left-then-right execution
// order. The probe codec is then compiled into the build's key space: a
// probe int column under a float-keyed build emits int-space fkeys, a probe
// string column under an int-keyed build is a constant miss, and row-backed
// probe columns box the value and classify it at runtime.

type ridKeyMode uint8

const (
	keyModeBoxed  ridKeyMode = iota // sqlvalue.AppendKey composite (fallback)
	keyModeInts                     // int/date/bool columns, one key word each
	keyModeFloat1                   // single float column (fkey space)
	keyModeStr1                     // single string column, keyed by its bytes
)

// fkey is the key space of a float join column, two key words: integral
// floats live in the int space ({0, the integer}) alongside int/date/bool
// keys; non-integral floats key by bit pattern ({1, bits}) with NaN
// canonicalized.
type fkey [2]int64

func intFkey(v int64) fkey { return fkey{0, v} }

func floatFkey(f float64) fkey {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fkey{0, int64(f)}
	}
	if math.IsNaN(f) {
		f = math.NaN()
	}
	return fkey{1, int64(math.Float64bits(f))}
}

// valueIntKey classifies a boxed value into the int key space, reporting
// false for NULLs and for values outside the class (a miss, not an error).
func valueIntKey(v sqlvalue.Value) (int64, bool) {
	switch v.Kind() {
	case sqlvalue.KindInt:
		return v.Int(), true
	case sqlvalue.KindDate:
		return v.DateDays(), true
	case sqlvalue.KindBool:
		if v.Bool() {
			return 1, true
		}
		return 0, true
	case sqlvalue.KindFloat:
		f := v.Float()
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return int64(f), true
		}
		return 0, false
	default:
		return 0, false
	}
}

func valueFkey(v sqlvalue.Value) (fkey, bool) {
	switch v.Kind() {
	case sqlvalue.KindInt:
		return intFkey(v.Int()), true
	case sqlvalue.KindDate:
		return intFkey(v.DateDays()), true
	case sqlvalue.KindBool:
		if v.Bool() {
			return intFkey(1), true
		}
		return intFkey(0), true
	case sqlvalue.KindFloat:
		return floatFkey(v.Float()), true
	default:
		return fkey{}, false
	}
}

func valueStrKey(v sqlvalue.Value) (string, bool) {
	if v.Kind() == sqlvalue.KindString {
		return v.Str(), true
	}
	return "", false
}

// classifyKeys picks the key mode for a build layout's key columns. Typed
// modes require store-backed columns of one key class; anything else — a
// row-backed column, mixed kinds, no key column at all — takes the boxed
// codec.
func classifyKeys(layout *ridLayout, cols []int) ridKeyMode {
	if len(cols) == 0 {
		return keyModeBoxed
	}
	kinds := make([]sqlvalue.Kind, len(cols))
	for i, c := range cols {
		if c < 0 || c >= layout.width() {
			return keyModeBoxed
		}
		rel, local := layout.locate(c)
		r := layout.rels[rel]
		if r.store == nil {
			return keyModeBoxed
		}
		kinds[i] = r.cols[local].Kind
	}
	if len(cols) == 1 {
		switch kinds[0] {
		case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
			return keyModeInts
		case sqlvalue.KindFloat:
			return keyModeFloat1
		case sqlvalue.KindString:
			return keyModeStr1
		default: // KindNull: every key is NULL; boxed path skips them all
			return keyModeBoxed
		}
	}
	for _, k := range kinds {
		switch k {
		case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
		default:
			return keyModeBoxed
		}
	}
	return keyModeInts
}

// ---------------------------------------------------------------------------
// Key getters: column → key-space value, straight off typed arrays

// intKeyGetter reads one column as an int-space key. Typed int-family
// columns read the array directly; typed float columns apply the integral
// check; string and never-set columns are constant misses; row-backed
// columns box and classify per value.
func intKeyGetter(layout *ridLayout, col int) func(in *ridBatch, k int) (int64, bool) {
	rel, local := layout.locate(col)
	r := layout.rels[rel]
	if r.store != nil {
		v := r.cols[local]
		switch v.Kind {
		case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
			a, nulls := v.Ints, v.Nulls
			if nulls == nil {
				return func(in *ridBatch, k int) (int64, bool) { return a[in.sel[rel][k]], true }
			}
			return func(in *ridBatch, k int) (int64, bool) {
				rid := in.sel[rel][k]
				if bitSet(nulls, int(rid)) {
					return 0, false
				}
				return a[rid], true
			}
		case sqlvalue.KindFloat:
			a, nulls := v.Floats, v.Nulls
			return func(in *ridBatch, k int) (int64, bool) {
				rid := in.sel[rel][k]
				if nulls != nil && bitSet(nulls, int(rid)) {
					return 0, false
				}
				f := a[rid]
				if f == math.Trunc(f) && math.Abs(f) < 1e15 {
					return int64(f), true
				}
				return 0, false
			}
		default: // string or all-NULL column: nothing in the int key class
			return func(*ridBatch, int) (int64, bool) { return 0, false }
		}
	}
	em := r.emitter(local)
	return func(in *ridBatch, k int) (int64, bool) { return valueIntKey(em(int(in.sel[rel][k]))) }
}

func fkeyGetter(layout *ridLayout, col int) func(in *ridBatch, k int) (fkey, bool) {
	rel, local := layout.locate(col)
	r := layout.rels[rel]
	if r.store != nil {
		v := r.cols[local]
		switch v.Kind {
		case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
			a, nulls := v.Ints, v.Nulls
			return func(in *ridBatch, k int) (fkey, bool) {
				rid := in.sel[rel][k]
				if nulls != nil && bitSet(nulls, int(rid)) {
					return fkey{}, false
				}
				return intFkey(a[rid]), true
			}
		case sqlvalue.KindFloat:
			a, nulls := v.Floats, v.Nulls
			return func(in *ridBatch, k int) (fkey, bool) {
				rid := in.sel[rel][k]
				if nulls != nil && bitSet(nulls, int(rid)) {
					return fkey{}, false
				}
				return floatFkey(a[rid]), true
			}
		default:
			return func(*ridBatch, int) (fkey, bool) { return fkey{}, false }
		}
	}
	em := r.emitter(local)
	return func(in *ridBatch, k int) (fkey, bool) { return valueFkey(em(int(in.sel[rel][k]))) }
}

func strKeyGetter(layout *ridLayout, col int) func(in *ridBatch, k int) (string, bool) {
	rel, local := layout.locate(col)
	r := layout.rels[rel]
	if r.store != nil {
		v := r.cols[local]
		if v.Kind == sqlvalue.KindString {
			a, nulls := v.Strs, v.Nulls
			return func(in *ridBatch, k int) (string, bool) {
				rid := in.sel[rel][k]
				if nulls != nil && bitSet(nulls, int(rid)) {
					return "", false
				}
				return a[rid], true
			}
		}
		return func(*ridBatch, int) (string, bool) { return "", false }
	}
	em := r.emitter(local)
	return func(in *ridBatch, k int) (string, bool) { return valueStrKey(em(int(in.sel[rel][k]))) }
}

// ---------------------------------------------------------------------------
// Key codec

type ridBoxCol struct {
	rel int
	em  colEmitter
}

// ridKeyCodec extracts join keys from rid tuples in a fixed mode, in the form
// a keyTable takes them: width words per key for the int and float modes,
// byte strings (width 0) for the string and boxed modes. The same
// constructor serves both sides: the build side passes its own layout, the
// probe side passes its layout with the build's mode, which compiles the
// adapters that map probe columns into the build's key space.
type ridKeyCodec struct {
	mode  ridKeyMode
	width int
	ints  []func(in *ridBatch, k int) (int64, bool)
	gf    func(in *ridBatch, k int) (fkey, bool)
	gs    func(in *ridBatch, k int) (string, bool)
	box   []ridBoxCol
}

func newRidKeyCodec(mode ridKeyMode, layout *ridLayout, cols []int) *ridKeyCodec {
	c := &ridKeyCodec{mode: mode}
	switch mode {
	case keyModeInts:
		c.width = len(cols)
		for _, col := range cols {
			c.ints = append(c.ints, intKeyGetter(layout, col))
		}
	case keyModeFloat1:
		c.width = 2
		c.gf = fkeyGetter(layout, cols[0])
	case keyModeStr1:
		c.gs = strKeyGetter(layout, cols[0])
	default:
		for _, col := range cols {
			rel, local := layout.locate(col)
			c.box = append(c.box, ridBoxCol{rel: rel, em: layout.rels[rel].emitter(local)})
		}
	}
	return c
}

// appendKey appends tuple k's key to l, a list of the codec's width, or
// reports false — l unchanged — when a component is NULL or outside the
// build's key class: the tuple can match nothing.
func (c *ridKeyCodec) appendKey(l *keyList, in *ridBatch, k int) bool {
	nw, nb := len(l.words), len(l.bytes)
	switch c.mode {
	case keyModeInts:
		for _, g := range c.ints {
			v, ok := g(in, k)
			if !ok {
				l.words = l.words[:nw]
				return false
			}
			l.words = append(l.words, v)
		}
		return true
	case keyModeFloat1:
		f, ok := c.gf(in, k)
		if ok {
			l.words = append(l.words, f[:]...)
		}
		return ok
	case keyModeStr1:
		s, ok := c.gs(in, k)
		if !ok {
			return false
		}
		l.bytes = append(l.bytes, s...)
	default:
		for i := range c.box {
			bc := &c.box[i]
			v := bc.em(int(in.sel[bc.rel][k]))
			if v.IsNull() {
				l.bytes = l.bytes[:nb]
				return false
			}
			l.bytes = append(v.AppendKey(l.bytes), '\x1f')
		}
	}
	l.ends = append(l.ends, int32(len(l.bytes)))
	return true
}

// ---------------------------------------------------------------------------
// Build side

// ridJoinBuild is a finished, immutable rid-join build table shared by all
// probe workers, in compressed-sparse-row form: key id (from tab) → the rid
// tuples rids[starts[id]*arity : starts[id+1]*arity], in build-input order.
// A non-empty int-keyed build keeps each key column's smallest and largest
// key (lo, hi), the range a probe scan may restrict itself to.
type ridJoinBuild struct {
	arity  int
	mode   ridKeyMode
	tab    keyTable
	starts []int32
	rids   []int32
	lo, hi []int64
}

// ridBuildSink collects one worker's share of the build input and does
// nothing else: per tuple with a non-NULL key, the key and the rid tuple are
// appended to flat arrays; marks records where each morsel's tuples begin.
type ridBuildSink struct {
	codec *ridKeyCodec
	arity int
	keys  keyList // one per collected tuple
	rids  []int32 // arity per collected tuple
	marks []ridMark
}

type ridMark struct{ seq, at int }

func (b *ridBuildSink) tuples() int { return len(b.rids) / b.arity }

func (b *ridBuildSink) begin(seq int) { b.marks = append(b.marks, ridMark{seq, b.tuples()}) }

func (b *ridBuildSink) pushRids(in *ridBatch) error {
	for k := 0; k < in.n; k++ {
		if !b.codec.appendKey(&b.keys, in, k) {
			continue
		}
		for r := 0; r < b.arity; r++ {
			b.rids = append(b.rids, in.sel[r][k])
		}
	}
	return nil
}

// buildRidJoin executes the build side of a hash join as a pipeline of its
// own and turns what the workers collected into the CSR table.
func (e *Engine) buildRidJoin(db storage.Reader, j *HashJoin) (*ridJoinBuild, *ridLayout, error) {
	p, err := e.input(db, j.L)
	if err != nil {
		return nil, nil, err
	}
	codec := newRidKeyCodec(classifyKeys(p.layout, j.LCols), p.layout, j.LCols)
	arity := p.layout.arity()
	sinks, err := e.run(p, func(int) ridSink {
		return &ridBuildSink{codec: codec, arity: arity, keys: keyList{width: codec.width}}
	})
	if err != nil {
		return nil, nil, err
	}
	return finishRidBuild(sinks, codec, arity), p.layout, nil
}

// finishRidBuild is the serial half of a build: one pass over the collected
// tuples in morsel order — the build input's order, whichever worker ran
// which morsel — gives every distinct key an id; counting ids and a prefix
// sum lay out the per-key ranges; a second pass in the same order scatters
// the rid tuples into them. Per-key lists come out in build-input order
// because that is the order they are written in.
func finishRidBuild(sinks []ridSink, codec *ridKeyCodec, arity int) *ridJoinBuild {
	type span struct {
		b      *ridBuildSink
		lo, hi int
	}
	var spans []span
	total := 0
	next := make([]int, len(sinks)) // each sink's next unvisited mark
	for {
		var first *ridBuildSink
		at := -1
		for i, s := range sinks {
			b := s.(*ridBuildSink)
			if next[i] < len(b.marks) && (at < 0 || b.marks[next[i]].seq < first.marks[next[at]].seq) {
				first, at = b, i
			}
		}
		if at < 0 {
			break
		}
		lo, hi := first.marks[next[at]].at, first.tuples()
		if next[at]++; next[at] < len(first.marks) {
			hi = first.marks[next[at]].at
		}
		spans = append(spans, span{first, lo, hi})
		total += hi - lo
	}
	out := &ridJoinBuild{arity: arity, mode: codec.mode, tab: newKeyTable(codec.width, total)}
	ids := make([]int32, total)
	at := 0
	for _, sp := range spans {
		out.tab.putAll(&sp.b.keys, sp.lo, sp.hi, ids[at:])
		at += sp.hi - sp.lo
	}
	n := int(out.tab.n)
	if codec.mode == keyModeInts && n > 0 {
		out.lo, out.hi = append([]int64(nil), out.tab.wordsOf(0)...), append([]int64(nil), out.tab.wordsOf(0)...)
		for id := 1; id < n; id++ {
			for c, k := range out.tab.wordsOf(id) {
				out.lo[c], out.hi[c] = min(out.lo[c], k), max(out.hi[c], k)
			}
		}
	}
	starts := make([]int32, n+1)
	for _, id := range ids {
		starts[id]++
	}
	run := int32(0)
	for id, c := range starts {
		starts[id], run = run, run+c
	}
	// Scatter, advancing starts[id] past each tuple written; afterwards
	// starts[id] is where id+1 began, so shifting by one restores it.
	out.rids = make([]int32, total*arity)
	e := 0
	for _, sp := range spans {
		for src := sp.b.rids[sp.lo*arity : sp.hi*arity]; len(src) > 0; src = src[arity:] {
			at := int(starts[ids[e]]) * arity
			starts[ids[e]]++
			copy(out.rids[at:at+arity], src)
			e++
		}
	}
	copy(starts[1:], starts[:n])
	starts[0] = 0
	out.starts = starts
	return out
}

// ---------------------------------------------------------------------------
// Probe side

type ridProbeSpec struct {
	build    *ridJoinBuild
	keys     *ridKeyCodec
	residual expr.CompiledPredicate
	resEval  ridEval
	outArity int
	batch    int
}

func (s *ridProbeSpec) makeRid(next ridPusher, stats *ScanStats) ridStage {
	return &ridProbeStage{spec: s, ridOut: newRidOut(next), stats: stats}
}

// ridProbeStage matches probe tuples against the build table batch-at-a-time
// and extends each surviving tuple with the matching build entry's rids: the
// output tuple is (build rels..., probe rels...), the reference's left++right
// concatenation. All scratch is pooled per worker.
type ridProbeStage struct {
	spec *ridProbeSpec
	ridOut
	stats *ScanStats
}

func (p *ridProbeStage) pushRids(in *ridBatch) error {
	s := p.spec
	b := s.build
	ba := b.arity
	p.clear(s.outArity)
	out := &p.out
	var row storage.Row
	if s.residual != nil {
		row = p.sc.wideRow(s.resEval.width)
	}
	matched := 0
	for k, id := range p.lookup(in) {
		if id < 0 {
			continue
		}
		matched++
		lst := b.rids[int(b.starts[id])*ba : int(b.starts[id+1])*ba]
		for e := 0; e < len(lst); e += ba {
			ent := lst[e : e+ba]
			if s.residual != nil {
				s.resEval.fillJoin(row, ent, in, k, ba)
				pass, err := s.residual(row)
				if err != nil {
					return err
				}
				if !pass {
					continue
				}
			}
			for r := 0; r < ba; r++ {
				out.sel[r] = append(out.sel[r], ent[r])
			}
			for r := ba; r < s.outArity; r++ {
				out.sel[r] = append(out.sel[r], in.sel[r-ba][k])
			}
			out.n++
			if out.n >= s.batch {
				if err := p.flush(); err != nil {
					return err
				}
			}
		}
	}
	p.stats.RowsProbed += int64(in.n)
	p.stats.RowsMatched += int64(matched)
	return p.flush()
}

// lookup returns, per tuple of in, the build's id for its key, or -1.
func (p *ridProbeStage) lookup(in *ridBatch) []int32 {
	c, t, key := p.spec.keys, &p.spec.build.tab, &p.sc.key
	key.width = c.width
	key.reset()
	ids := p.sc.ids[:0]
	if c.width != 1 {
		for k := 0; k < in.n; k++ {
			id := int32(-1)
			if c.appendKey(key, in, k) {
				id = t.find(key, 0)
				key.reset()
			}
			ids = append(ids, id)
		}
	} else { // one int key: the whole batch goes to the table at once
		for k := 0; k < in.n; k++ {
			if c.appendKey(key, in, k) {
				ids = append(ids, 0)
			} else {
				ids, key.words = append(ids, -1), append(key.words, 0)
			}
		}
		t.findInts(key.words, ids)
	}
	p.sc.ids = ids
	return ids
}
