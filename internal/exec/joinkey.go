package exec

import (
	"math"
	"slices"
	"sync"

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

// valueFkey classifies a boxed value into the fkey space, reporting false
// for NULLs and for values outside it (a miss, not an error).
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
// Key codec

// ridKeyCol is one key column as a codec reads it: its relation and either
// its typed arrays or — when the relation is rows, or the codec boxed — its
// boxed emitter.
type ridKeyCol struct {
	rel  int
	view *storage.ColView
	em   colEmitter
}

// ridKeyCodec extracts join keys from rid tuples in a fixed mode, in the form
// a keyTable takes them: width words per key for the int and float modes,
// byte strings (width 0) for the string and boxed modes. The same
// constructor serves both sides: the build side passes its own layout, the
// probe side passes its layout with the build's mode, so each probe column is
// read into the build's key space.
type ridKeyCodec struct {
	mode  ridKeyMode
	width int
	cols  []ridKeyCol
}

func newRidKeyCodec(mode ridKeyMode, layout *ridLayout, cols []int) *ridKeyCodec {
	c := &ridKeyCodec{mode: mode}
	switch mode {
	case keyModeInts:
		c.width = len(cols)
	case keyModeFloat1:
		c.width = 2
	}
	for _, col := range cols {
		rel, local := layout.locate(col)
		kc := ridKeyCol{rel: rel}
		if r := layout.rels[rel]; r.store != nil && mode != keyModeBoxed {
			kc.view = &r.cols[local]
		} else {
			kc.em = r.emitter(local)
		}
		c.cols = append(c.cols, kc)
	}
	return c
}

// keys appends the key of every tuple of in to l, one entry a tuple, a column
// at a time where the columns are typed, and returns ids with ids[k] = 0, or
// -1 when tuple k's key has a NULL component or lies outside the build's key
// class: it can match nothing, and its entry holds junk words or no bytes.
func (c *ridKeyCodec) keys(in *ridBatch, l *keyList, ids []int32) []int32 {
	n := in.n
	ids = fill(ids, n, 0)
	switch c.mode {
	case keyModeInts, keyModeFloat1:
		at := len(l.words)
		l.words = slices.Grow(l.words, n*c.width)[:at+n*c.width]
		for j := range c.cols {
			c.cols[j].words(c.mode == keyModeFloat1, in.sel[c.cols[j].rel][:n], l.words[at:], j, c.width, ids)
		}
	case keyModeStr1:
		kc := &c.cols[0]
		for k, rid := range in.sel[kc.rel][:n] {
			switch v := kc.view; {
			case v == nil:
				if x := kc.em(int(rid)); x.Kind() == sqlvalue.KindString {
					l.bytes = append(l.bytes, x.Str()...)
				} else {
					ids[k] = -1
				}
			case v.Kind == sqlvalue.KindString && !bitSet(inBlock(v, rid).Nulls, int(rid&(storage.BlockRows-1))):
				l.bytes = append(l.bytes, inBlock(v, rid).Strs[rid&(storage.BlockRows-1)]...)
			default:
				ids[k] = -1
			}
			l.ends = append(l.ends, int32(len(l.bytes)))
		}
	default: // boxed: tuple by tuple
		for k := 0; k < n; k++ {
			nb := len(l.bytes)
			for _, kc := range c.cols {
				v := kc.em(int(in.sel[kc.rel][k]))
				if v.IsNull() {
					l.bytes, ids[k] = l.bytes[:nb], -1
					break
				}
				l.bytes = append(v.AppendKey(l.bytes), '\x1f')
			}
			l.ends = append(l.ends, int32(len(l.bytes)))
		}
	}
	return ids
}

// words writes the column's key of each tuple of sel into dst, w words a
// tuple: word j in the int space, or — float — both words of an fkey. A
// float column under an int build keeps its integral values; a string
// column has nothing in either space; a row-backed value is classified.
func (kc *ridKeyCol) words(float bool, sel []int32, dst []int64, j, w int, ids []int32) {
	const mask = storage.BlockRows - 1
	v := kc.view
	var full []*storage.Block
	var last *storage.Block
	if v != nil {
		full, last = v.Full, v.Last
	}
	switch {
	case v == nil:
		for k, rid := range sel {
			f, ok := valueFkey(kc.em(int(rid)))
			if float {
				dst[2*k], dst[2*k+1] = f[0], f[1]
			} else if dst[k*w+j] = f[1]; f[0] != 0 {
				ok = false
			}
			if !ok {
				ids[k] = -1
			}
		}
	case v.Kind == sqlvalue.KindFloat:
		for k, rid := range sel {
			f := floatFkey(blockOf(full, last, rid).Floats[rid&mask])
			if float {
				dst[2*k], dst[2*k+1] = f[0], f[1]
			} else if f[0] == 0 {
				dst[k*w+j] = f[1]
			} else {
				ids[k] = -1
			}
		}
	case v.Kind == sqlvalue.KindString || v.Kind == sqlvalue.KindNull:
		for k := range sel {
			ids[k] = -1
		}
	case float:
		var a []int64
		base := int32(-1)
		for k, rid := range sel {
			if b := rid &^ mask; b != base {
				base, a = b, blockOf(full, last, rid).Ints
			}
			dst[2*k], dst[2*k+1] = 0, a[rid-base]
		}
	default:
		// Keys are read a block at a time: a probe scan's rids run through
		// one block before the next.
		var a []int64
		base := int32(-1)
		for k, rid := range sel {
			if b := rid &^ mask; b != base {
				base, a = b, blockOf(full, last, rid).Ints
			}
			dst[k*w+j] = a[rid-base]
		}
	}
	if v != nil && v.Nullable() {
		for k, rid := range sel {
			if bitSet(blockOf(full, last, rid).Nulls, int(rid&mask)) {
				ids[k] = -1
			}
		}
	}
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
// nothing else: a batch's keys are read into keys, and the tuples with a
// non-NULL key keep theirs and append their rid tuple to rids; marks records
// where each morsel's tuples begin. Sinks come from ridBuildPool, so the
// collect arrays keep their capacity from one build to the next.
type ridBuildSink struct {
	codec *ridKeyCodec
	arity int
	keys  keyList // one per collected tuple
	rids  []int32 // arity per collected tuple
	marks []ridMark
	live  []int32 // scratch: per batch, the tuples with a key
}

type ridMark struct{ seq, at int }

var ridBuildPool = sync.Pool{New: func() any { return new(ridBuildSink) }}

func (b *ridBuildSink) tuples() int { return len(b.rids) / b.arity }

func (b *ridBuildSink) begin(seq int) { b.marks = append(b.marks, ridMark{seq, b.tuples()}) }

func (b *ridBuildSink) pushRids(in *ridBatch) error {
	at := b.tuples()
	live := b.codec.keys(in, &b.keys, b.live)
	n := 0
	for k, id := range live {
		if id >= 0 {
			live[n] = int32(k)
			n++
		}
	}
	b.live, live = live, live[:n]
	if n < in.n {
		b.keys.keep(at, live)
	}
	a := b.arity
	b.rids = slices.Grow(b.rids, n*a)[:(at+n)*a]
	for r, sel := range in.sel[:a] {
		dst := b.rids[at*a:]
		for i, k := range live {
			dst[i*a+r] = sel[k]
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
		b := ridBuildPool.Get().(*ridBuildSink)
		b.codec, b.arity, b.keys.width = codec, arity, codec.width
		b.keys.reset()
		b.rids, b.marks = b.rids[:0], b.marks[:0]
		return b
	})
	if err != nil {
		return nil, nil, err
	}
	build := finishRidBuild(sinks, codec, arity)
	for _, s := range sinks {
		s.(*ridBuildSink).codec = nil
		ridBuildPool.Put(s)
	}
	return build, p.layout, nil
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
	s, sc := p.spec, p.sc
	b := s.build
	ba := b.arity
	ids := p.lookup(in)
	p.clear(s.outArity)
	out := &p.out
	// Pairs (probe tuple, build entry) are taken in probe-major order, as
	// many as out has room for: they fill out a column at a time, and out is
	// flushed when full, exactly where a tuple-at-a-time loop would flush it.
	// A residual is a filter stage after this one.
	k, e, matched := 0, -1, 0 // the next probe tuple, and its next build entry once started
	for k < in.n {
		pk, pe := sc.pk[:0], sc.pe[:0]
		for room := s.batch - out.n; k < in.n && len(pk) < room; {
			id := ids[k]
			if id < 0 {
				k++
				continue
			}
			if e < 0 {
				e, matched = int(b.starts[id]), matched+1
			}
			end := min(int(b.starts[id+1]), e+room-len(pk))
			for ; e < end; e++ {
				pk, pe = append(pk, int32(k)), append(pe, int32(e))
			}
			if e == int(b.starts[id+1]) {
				k, e = k+1, -1
			}
		}
		sc.pk, sc.pe = pk, pe
		for r := range out.sel {
			dst := slices.Grow(out.sel[r], len(pk))[:out.n+len(pk)]
			if r < ba {
				for i, x := range pe {
					dst[out.n+i] = b.rids[int(x)*ba+r]
				}
			} else {
				for i, x := range pk {
					dst[out.n+i] = in.sel[r-ba][x]
				}
			}
			out.sel[r] = dst
		}
		if out.n += len(pk); out.n >= s.batch {
			if err := p.flush(); err != nil {
				return err
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
	ids := c.keys(in, key, p.sc.ids)
	p.sc.ids = ids
	if c.width == 1 { // one int key: the whole batch goes to the table at once
		t.findInts(key.words, ids)
		return ids
	}
	for k, id := range ids {
		if id >= 0 {
			ids[k] = t.find(key, k)
		}
	}
	return ids
}

// ---------------------------------------------------------------------------
// Index lookup

// ridIndexSpec is the paper's index lookup (S13) as a stage: each tuple's
// key, read from any of its relations in storage.Index key format, is looked
// up in idx, and the tuple is extended by every ordinal found, in the
// index's order. memo, when set, holds the lookups of every row of relation
// 0, made once for every term that shares them. A delta term (delta.go)
// binds idx and memo per statement.
type ridIndexSpec struct {
	keys  *ridKeyCodec // boxed
	idx   *storage.Index
	memo  *ridMemo
	batch int
}

// ridMemo holds index lookups by tuple: tuple j's ordinals are
// ords[starts[j]:starts[j+1]].
type ridMemo struct {
	starts []int32
	ords   []int
}

// lookup fills m with the ordinals idx files under the key of each tuple of
// in, and counts the probes: a key with a NULL matches nothing and is not
// probed. l and ids are the caller's scratch.
func (s *ridIndexSpec) lookup(in *ridBatch, m *ridMemo, l *keyList, ids []int32, stats *ScanStats) []int32 {
	l.width = 0
	l.reset()
	ids = s.keys.keys(in, l, ids)
	m.starts, m.ords = append(m.starts[:0], 0), m.ords[:0]
	for k, id := range ids {
		if id >= 0 {
			stats.RowsProbed++
			ords := s.idx.ProbeKey(l.bytesOf(k))
			if len(ords) > 0 {
				stats.RowsMatched++
			}
			m.ords = append(m.ords, ords...)
		}
		m.starts = append(m.starts, int32(len(m.ords)))
	}
	return ids
}

func (s *ridIndexSpec) makeRid(next ridPusher, stats *ScanStats) ridStage {
	return &ridIndexStage{spec: s, ridOut: newRidOut(next), stats: stats}
}

type ridIndexStage struct {
	spec *ridIndexSpec
	ridOut
	stats *ScanStats
	memo  ridMemo // the batch's lookups, unless the spec's memo has them
}

func (p *ridIndexStage) pushRids(in *ridBatch) error {
	s, arity := p.spec, len(in.sel)
	m, at := s.memo, in.sel[0]
	if m == nil {
		p.sc.ids = s.lookup(in, &p.memo, &p.sc.key, p.sc.ids, p.stats)
		m, at = &p.memo, nil
	}
	p.clear(arity + 1)
	out := &p.out
	for k := range in.n {
		j := k
		if at != nil {
			j = int(at[k])
		}
		for _, ord := range m.ords[m.starts[j]:m.starts[j+1]] {
			for r, sel := range in.sel {
				out.sel[r] = append(out.sel[r], sel[k])
			}
			out.sel[arity] = append(out.sel[arity], int32(ord))
			if out.n++; out.n >= s.batch {
				if err := p.flush(); err != nil {
					return err
				}
			}
		}
	}
	return p.flush()
}
