// Column-major storage. A ColumnStore holds one typed array per column —
// int64 for BIGINT/DATE/BOOLEAN payloads, float64 for DOUBLE, Go strings for
// VARCHAR — plus a null bitmap, instead of a heap of materialized Row slices.
// Rows are organized into fixed-size blocks of BlockRows rows (aligned with
// the execution engine's batch size); every block carries a per-column
// min/max zone map maintained eagerly at mutation time, which lets scans
// prove "no row in this block can satisfy the predicate" and skip the block
// without touching its values.
//
// A column has one representation: its typed array and null bitmap. Its kind
// is fixed by the first non-NULL value stored in it, and a value of another
// kind is refused — Table.Insert checks the declared type before appending,
// and a view write that carries one is a program error, so AppendRow panics
// naming both kinds.
//
// A store only ever grows: a row is added by appending to every column, and
// removed by setting its bit in the store's dead bitmap (a tombstone). An
// ordinal therefore names the same row for the store's whole life, payloads
// below the current length are never written again, and a frozen copy (see
// Freeze) is a set of lengths plus its own dead bitmap. Len is the physical
// length — the bound of the ordinal space, dead rows included; Live is the
// number of rows a reader sees. Zone maps stay conservative bounds after a
// delete. Rewrite copies the live rows, in order, into a fresh store once
// the dead ones are worth reclaiming.
package storage

import (
	"cmp"
	"fmt"

	"math/bits"

	"matview/internal/sqlvalue"
)

// BlockRows is the number of rows per storage block. It matches the
// engine's default batch size so a default morsel covers exactly one block.
const BlockRows = 1024

// Zone is the per-block, per-column statistics record. Min and Max bound the
// non-NULL values in the block (meaningful only when HasNonNull). Tracked is
// false once the block has folded a NaN, which compares equal to everything
// and so bounds nothing; scans must then read the block.
type Zone struct {
	Min, Max   sqlvalue.Value
	HasNull    bool
	HasNonNull bool
	Tracked    bool
}

// column is one column of a ColumnStore.
//
// Every array is append-only: a write lands at or beyond the current length,
// which no frozen copy can reach (and a reallocating append leaves the frozen
// array behind entirely). The one exception is the null bitmap, whose last
// word a frozen copy may cover: appending a NULL into a word that already
// exists clones the bitmap first when sharedNulls says a frozen copy reads
// it.
type column struct {
	ColView // Kind is KindNull until the first non-NULL value fixes it

	// zones holds the statistics of every full block; tail those of the last,
	// partial one (or of a last full block no append has followed yet). tail
	// is a value, so a frozen copy keeps its own while the live store folds
	// further appends into its.
	zones []Zone
	tail  Zone

	sharedNulls bool // Nulls is read by a frozen copy
}

// ensureNulls clones the null bitmap before an in-place word write.
func (c *column) ensureNulls() {
	if c.sharedNulls {
		c.Nulls = append([]uint64(nil), c.Nulls...)
		c.sharedNulls = false
	}
}

func bitSet(bm []uint64, i int) bool {
	w := i >> 6
	return w < len(bm) && bm[w]&(1<<(uint(i)&63)) != 0
}

func (c *column) setNull(i int) {
	w := i >> 6
	if w < len(c.Nulls) {
		// In-place OR into a word frozen readers may cover.
		c.ensureNulls()
	} else {
		// Growing the bitmap only touches words past every frozen length.
		for len(c.Nulls) <= w {
			c.Nulls = append(c.Nulls, 0)
		}
	}
	c.Nulls[w] |= 1 << (uint(i) & 63)
}

// adopt fixes the column's kind, backfilling the typed array with zero
// payloads for the n existing (all-NULL) rows.
func (c *column) adopt(k sqlvalue.Kind, n int) {
	c.Kind = k
	switch k {
	case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
		c.Ints = make([]int64, n)
	case sqlvalue.KindFloat:
		c.Floats = make([]float64, n)
	case sqlvalue.KindString:
		c.Strs = make([]string, n)
	}
}

func (c *column) appendZero() {
	switch c.Kind {
	case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
		c.Ints = append(c.Ints, 0)
	case sqlvalue.KindFloat:
		c.Floats = append(c.Floats, 0)
	case sqlvalue.KindString:
		c.Strs = append(c.Strs, "")
	}
}

func (c *column) setPayload(i int, v sqlvalue.Value) {
	switch c.Kind {
	case sqlvalue.KindInt:
		c.Ints[i] = v.Int()
	case sqlvalue.KindDate:
		c.Ints[i] = v.DateDays()
	case sqlvalue.KindBool:
		if v.Bool() {
			c.Ints[i] = 1
		} else {
			c.Ints[i] = 0
		}
	case sqlvalue.KindFloat:
		c.Floats[i] = v.Float()
	case sqlvalue.KindString:
		c.Strs[i] = v.Str()
	}
}

// append stores v at ordinal n (the current length). A value of a kind
// other than the column's is a program error.
func (c *column) append(v sqlvalue.Value, n int) {
	if v.IsNull() {
		c.setNull(n)
		c.appendZero()
		return
	}
	if k := v.Kind(); c.Kind == sqlvalue.KindNull {
		c.adopt(k, n)
	} else if c.Kind != k {
		panic(fmt.Sprintf("storage: %s value appended to a %s column", k, c.Kind))
	}
	c.appendZero()
	c.setPayload(n, v)
}

// foldLast folds row n, the value just appended, into a block's statistics
// straight from the typed array, boxing a value only when it becomes the new
// minimum or maximum. A NaN leaves the block untracked: it compares equal to
// everything, so folding it would pin Min and Max and hide the block's other
// values.
func (c *column) foldLast(z *Zone, n int) {
	if bitSet(c.Nulls, n) {
		z.HasNull = true
		return
	}
	switch c.Kind {
	case sqlvalue.KindInt:
		foldAt(z, c.Ints[n], sqlvalue.Value.Int, sqlvalue.NewInt)
	case sqlvalue.KindDate:
		foldAt(z, c.Ints[n], sqlvalue.Value.DateDays, sqlvalue.NewDate)
	case sqlvalue.KindBool:
		foldAt(z, c.Ints[n], boolPayload, boolValue)
	case sqlvalue.KindFloat:
		if x := c.Floats[n]; x != x {
			z.Tracked = false
		} else {
			foldAt(z, x, sqlvalue.Value.Float, sqlvalue.NewFloat)
		}
	case sqlvalue.KindString:
		foldAt(z, c.Strs[n], sqlvalue.Value.Str, sqlvalue.NewString)
	}
}

func boolPayload(v sqlvalue.Value) int64 {
	if v.Bool() {
		return 1
	}
	return 0
}

func boolValue(x int64) sqlvalue.Value { return sqlvalue.NewBool(x != 0) }

// foldAt folds the non-NULL, non-NaN payload x into z, whose bounds hold
// payloads of the same kind.
func foldAt[T cmp.Ordered](z *Zone, x T, payload func(sqlvalue.Value) T, box func(T) sqlvalue.Value) {
	switch {
	case !z.HasNonNull:
		v := box(x)
		z.Min, z.Max, z.HasNonNull = v, v, true
	case x < payload(z.Min):
		z.Min = box(x)
	case x > payload(z.Max):
		z.Max = box(x)
	}
}

// ColView is a read-only view of one column's physical arrays, handed to the
// execution engine so scans and compiled predicates can read payloads
// directly. Exactly one of the typed slices is populated, per Kind (none
// while every value is NULL). Nulls may be shorter than the row count: an
// out-of-range word means "no NULLs there".
type ColView struct {
	Kind   sqlvalue.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []uint64
}

// IsNull reports whether row i of the column is NULL.
func (v ColView) IsNull(i int) bool { return bitSet(v.Nulls, i) }

// Value boxes row i of the column as a sqlvalue.Value.
func (v ColView) Value(i int) sqlvalue.Value { return v.value(i) }

// value is Value for the store's own loops, which reach the view in place.
func (v *ColView) value(i int) sqlvalue.Value {
	if bitSet(v.Nulls, i) {
		return sqlvalue.Null
	}
	switch v.Kind {
	case sqlvalue.KindInt:
		return sqlvalue.NewInt(v.Ints[i])
	case sqlvalue.KindDate:
		return sqlvalue.NewDate(v.Ints[i])
	case sqlvalue.KindBool:
		return sqlvalue.NewBool(v.Ints[i] != 0)
	case sqlvalue.KindFloat:
		return sqlvalue.NewFloat(v.Floats[i])
	case sqlvalue.KindString:
		return sqlvalue.NewString(v.Strs[i])
	default:
		return sqlvalue.Null
	}
}

// Gather boxes the column's values at the given row ordinals into a strided
// destination: the value for rids[k] lands in dst[off+k*stride]. It is the
// execution engine's late-materialization primitive — one typed dispatch per
// batch instead of one per value. NULL values leave their slot untouched, so
// callers must hand in zeroed (KindNull) destination slabs.
func (v ColView) Gather(rids []int32, dst []sqlvalue.Value, off, stride int) {
	nulls := v.Nulls
	switch v.Kind {
	case sqlvalue.KindInt:
		a := v.Ints
		if nulls == nil {
			for k, rid := range rids {
				dst[off+k*stride] = sqlvalue.NewInt(a[rid])
			}
			return
		}
		for k, rid := range rids {
			if !bitSet(nulls, int(rid)) {
				dst[off+k*stride] = sqlvalue.NewInt(a[rid])
			}
		}
	case sqlvalue.KindDate:
		a := v.Ints
		if nulls == nil {
			for k, rid := range rids {
				dst[off+k*stride] = sqlvalue.NewDate(a[rid])
			}
			return
		}
		for k, rid := range rids {
			if !bitSet(nulls, int(rid)) {
				dst[off+k*stride] = sqlvalue.NewDate(a[rid])
			}
		}
	case sqlvalue.KindBool:
		a := v.Ints
		if nulls == nil {
			for k, rid := range rids {
				dst[off+k*stride] = sqlvalue.NewBool(a[rid] != 0)
			}
			return
		}
		for k, rid := range rids {
			if !bitSet(nulls, int(rid)) {
				dst[off+k*stride] = sqlvalue.NewBool(a[rid] != 0)
			}
		}
	case sqlvalue.KindFloat:
		a := v.Floats
		if nulls == nil {
			for k, rid := range rids {
				dst[off+k*stride] = sqlvalue.NewFloat(a[rid])
			}
			return
		}
		for k, rid := range rids {
			if !bitSet(nulls, int(rid)) {
				dst[off+k*stride] = sqlvalue.NewFloat(a[rid])
			}
		}
	case sqlvalue.KindString:
		a := v.Strs
		if nulls == nil {
			for k, rid := range rids {
				dst[off+k*stride] = sqlvalue.NewString(a[rid])
			}
			return
		}
		for k, rid := range rids {
			if !bitSet(nulls, int(rid)) {
				dst[off+k*stride] = sqlvalue.NewString(a[rid])
			}
		}
	}
	// KindNull columns leave every slot at the zero Value (NULL).
}

// ColumnStore is column-major row storage: a fixed number of columns, each
// a typed array with a null bitmap and per-block zone maps, plus
// the dead bitmap that marks deleted rows.
type ColumnStore struct {
	n    int
	cols []column

	dead       []uint64 // tombstones; may be shorter than n (no dead rows there)
	ndead      int
	sharedDead bool // dead is read by a frozen copy: clone before the next tombstone
}

// NewColumnStore returns an empty store with ncols columns.
func NewColumnStore(ncols int) *ColumnStore {
	cs := &ColumnStore{cols: make([]column, ncols)}
	for c := range cs.cols {
		cs.cols[c].tail.Tracked = true
	}
	return cs
}

// Len returns the physical length: ordinals run over [0, Len()), dead rows
// included.
func (cs *ColumnStore) Len() int { return cs.n }

// Live returns the number of rows that are not dead.
func (cs *ColumnStore) Live() int { return cs.n - cs.ndead }

// NumCols returns the number of columns.
func (cs *ColumnStore) NumCols() int { return len(cs.cols) }

// NumBlocks returns the number of (possibly partial) blocks.
func (cs *ColumnStore) NumBlocks() int { return (cs.n + BlockRows - 1) / BlockRows }

// Zone returns the zone map of column c in block b. It bounds the block's
// live values; after a delete it may be wider than they are.
func (cs *ColumnStore) Zone(c, b int) Zone {
	col := &cs.cols[c]
	if b < len(col.zones) {
		return col.zones[b]
	}
	return col.tail
}

// IsDead reports whether row i has been deleted.
func (cs *ColumnStore) IsDead(i int) bool { return bitSet(cs.dead, i) }

// BlockDead returns the number of dead rows in block b. A store nobody has
// deleted from answers without looking at anything.
func (cs *ColumnStore) BlockDead(b int) int {
	const words = BlockRows / 64
	lo := b * words
	if lo >= len(cs.dead) {
		return 0
	}
	n := 0
	for _, w := range cs.dead[lo:min(lo+words, len(cs.dead))] {
		n += bits.OnesCount64(w)
	}
	return n
}

// LiveRun returns the first maximal run [lo, hi) of live ordinals inside
// [from, to); lo == to when every row there is dead. Scans walk the blocks
// BlockDead flags run by run, so their row loops never test a tombstone.
func (cs *ColumnStore) LiveRun(from, to int) (lo, hi int) {
	for lo = from; lo < to && bitSet(cs.dead, lo); lo++ {
	}
	for hi = lo; hi < to && !bitSet(cs.dead, hi); hi++ {
	}
	return lo, hi
}

// Col returns a read-only view of column c's physical arrays.
func (cs *ColumnStore) Col(c int) ColView {
	return cs.cols[c].ColView
}

// Value boxes the value at (row i, column c).
func (cs *ColumnStore) Value(i, c int) sqlvalue.Value { return cs.cols[c].value(i) }

// AppendRow appends one row; r must have NumCols values, each NULL or of its
// column's kind. Values are copied out of r, so the caller keeps ownership of
// the slice. The last block's zone maps are updated incrementally.
func (cs *ColumnStore) AppendRow(r Row) {
	n := cs.n
	for c := range cs.cols {
		col := &cs.cols[c]
		col.append(r[c], n)
		if n > 0 && n%BlockRows == 0 {
			// The previous block is full: its zone is final. Appending it
			// writes past every frozen copy's length.
			col.zones = append(col.zones, col.tail)
			col.tail = Zone{Tracked: true}
		}
		if z := &col.tail; z.Tracked {
			col.foldLast(z, n)
		}
	}
	cs.n = n + 1
}

// Delete marks row i dead and reports whether it was live before. Payloads,
// null bits and zone maps are left alone; only the dead bitmap changes, and
// it is cloned first when a frozen copy reads it.
func (cs *ColumnStore) Delete(i int) bool {
	if i < 0 || i >= cs.n || bitSet(cs.dead, i) {
		return false
	}
	if cs.sharedDead {
		cs.dead = append(make([]uint64, 0, (cs.n+63)/64), cs.dead...)
		cs.sharedDead = false
	}
	for w := i >> 6; w >= len(cs.dead); {
		cs.dead = append(cs.dead, 0) // growing only touches words no frozen copy has
	}
	cs.dead[i>>6] |= 1 << (uint(i) & 63)
	cs.ndead++
	return true
}

// rewriteDue reports whether dead rows make up more than a quarter of the
// physical length — the point at which owners replace the store by its
// Rewrite. The copy is O(Len) and frees at least Len/4 rows, so it adds O(1)
// to the cost of each delete that led to it.
func (cs *ColumnStore) rewriteDue() bool { return cs.ndead*4 > cs.n }

// Rewrite returns a fresh store holding the live rows in their current
// order: no tombstones and exact zone maps. The receiver is untouched,
// so frozen copies of it stay valid; ordinals of the result are new.
//
// The result is the store appending the live rows one by one would build —
// the same kinds, payloads, null bitmaps and zones — made column by column:
// each column's live runs are copied into an exactly sized typed array and
// each block's zone is folded from that array with foldLast's rules.
func (cs *ColumnStore) Rewrite() *ColumnStore {
	live := cs.Live()
	cols := make([]ColView, len(cs.cols))
	for c := range cs.cols {
		cols[c] = cs.compact(c, live)
	}
	return NewColumnStoreOf(live, cols)
}

// rewriteOrdinal returns the map from a live row's ordinal to its ordinal in
// Rewrite's result: the ordinal less the dead rows before it.
func (cs *ColumnStore) rewriteOrdinal() func(int) int {
	before := make([]int, len(cs.dead)+1) // dead rows before word w
	for w, word := range cs.dead {
		before[w+1] = before[w] + bits.OnesCount64(word)
	}
	return func(ord int) int {
		w := ord >> 6
		if w >= len(cs.dead) {
			return ord - before[len(cs.dead)]
		}
		return ord - before[w] - bits.OnesCount64(cs.dead[w]&(1<<(uint(ord)&63)-1))
	}
}

// NewColumnStoreOf returns a store of n rows over the given column arrays,
// with no tombstones and each block's zone folded from the arrays as
// AppendRow would have folded it. It takes the arrays over. Each view must
// hold exactly n payloads of its kind (none for KindNull, every row of which
// is NULL) and a null bitmap of at most (n+63)/64 words with no bit set at
// or past n.
func NewColumnStoreOf(n int, cols []ColView) *ColumnStore {
	cs := &ColumnStore{n: n, cols: make([]column, len(cols))}
	for c, v := range cols {
		col := &cs.cols[c]
		col.ColView, col.tail = v, Zone{Tracked: true}
		for lo := 0; lo < n; lo += BlockRows {
			if lo > 0 {
				col.zones = append(col.zones, col.tail)
			}
			col.tail = col.blockZone(lo, min(lo+BlockRows, n))
		}
	}
	return cs
}

// Gather returns a store of cs's rows at ords, in that order: the batch a
// write hands to view maintenance as Δ. Each column keeps cs's kind, or
// kinds[c] while cs's column holds no value yet, so a gathered column keeps
// its type even when every value in it is NULL. Dead rows keep their
// payloads, so a delete's victims can be gathered after their tombstones.
func (cs *ColumnStore) Gather(ords []int, kinds []sqlvalue.Kind) *ColumnStore {
	n := len(ords)
	var nInt, nFloat, nStr int
	for c := range cs.cols {
		switch gatherKind(cs.cols[c].Kind, kinds[c]) {
		case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
			nInt++
		case sqlvalue.KindFloat:
			nFloat++
		case sqlvalue.KindString:
			nStr++
		}
	}
	// One slab per payload type, cut into the columns.
	ints, floats, strs := make([]int64, nInt*n), make([]float64, nFloat*n), make([]string, nStr*n)
	cols := make([]ColView, len(cs.cols))
	for c := range cs.cols {
		src := &cs.cols[c]
		dst := column{ColView: ColView{Kind: gatherKind(src.Kind, kinds[c])}}
		switch dst.Kind {
		case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
			dst.Ints, ints = ints[:n:n], ints[n:]
		case sqlvalue.KindFloat:
			dst.Floats, floats = floats[:n:n], floats[n:]
		case sqlvalue.KindString:
			dst.Strs, strs = strs[:n:n], strs[n:]
		}
		for j, ord := range ords {
			switch {
			case src.Kind == sqlvalue.KindNull || bitSet(src.Nulls, ord):
				dst.setNull(j)
			case dst.Ints != nil:
				dst.Ints[j] = src.Ints[ord]
			case dst.Floats != nil:
				dst.Floats[j] = src.Floats[ord]
			default:
				dst.Strs[j] = src.Strs[ord]
			}
		}
		cols[c] = dst.ColView
	}
	return NewColumnStoreOf(n, cols)
}

// gatherKind is the kind a gathered column takes: the stored column's, or
// the declared one while the stored column holds only NULLs.
func gatherKind(stored, declared sqlvalue.Kind) sqlvalue.Kind {
	if stored == sqlvalue.KindNull {
		return declared
	}
	return stored
}

// compact copies column c's live rows, of which there are live.
func (cs *ColumnStore) compact(c, live int) ColView {
	src := &cs.cols[c]
	dst := column{ColView: ColView{Kind: src.Kind}}
	switch src.Kind {
	case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
		dst.Ints = make([]int64, 0, live)
	case sqlvalue.KindFloat:
		dst.Floats = make([]float64, 0, live)
	case sqlvalue.KindString:
		dst.Strs = make([]string, 0, live)
	}
	n, nulls := 0, 0
	for i := 0; i < cs.n; {
		lo, hi := cs.LiveRun(i, cs.n)
		switch src.Kind {
		case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
			dst.Ints = append(dst.Ints, src.Ints[lo:hi]...)
		case sqlvalue.KindFloat:
			dst.Floats = append(dst.Floats, src.Floats[lo:hi]...)
		case sqlvalue.KindString:
			dst.Strs = append(dst.Strs, src.Strs[lo:hi]...)
		}
		if src.Nulls != nil {
			for r := lo; r < hi; r++ {
				if bitSet(src.Nulls, r) {
					dst.setNull(n + r - lo)
					nulls++
				}
			}
		}
		n += hi - lo
		i = hi
	}
	if nulls == live {
		// Only NULLs are left: appended one by one, they would fix no kind.
		return ColView{Kind: sqlvalue.KindNull, Nulls: dst.Nulls}
	}
	return dst.ColView
}

// blockZone is the zone AppendRow folds over rows [lo,hi) of the column.
func (c *column) blockZone(lo, hi int) Zone {
	switch c.Kind {
	case sqlvalue.KindInt:
		return foldTyped(c.Ints, c.Nulls, lo, hi, sqlvalue.NewInt)
	case sqlvalue.KindDate:
		return foldTyped(c.Ints, c.Nulls, lo, hi, sqlvalue.NewDate)
	case sqlvalue.KindBool:
		return foldTyped(c.Ints, c.Nulls, lo, hi, boolValue)
	case sqlvalue.KindFloat:
		return foldTyped(c.Floats, c.Nulls, lo, hi, sqlvalue.NewFloat)
	case sqlvalue.KindString:
		return foldTyped(c.Strs, c.Nulls, lo, hi, sqlvalue.NewString)
	}
	return Zone{Tracked: true, HasNull: true} // a KindNull column: every row is NULL
}

// foldTyped is foldLast over a[lo:hi] in row order, boxing only the two
// extremes: the first of equal extremes wins, and a NaN stops the fold with
// the block untracked.
func foldTyped[T cmp.Ordered](a []T, nulls []uint64, lo, hi int, box func(T) sqlvalue.Value) Zone {
	z := Zone{Tracked: true}
	lo0, hi0 := -1, -1
	for i := lo; i < hi; i++ {
		switch x := a[i]; {
		case bitSet(nulls, i):
			z.HasNull = true
		case x != x: // NaN
			z.Tracked = false
			i = hi
		case lo0 < 0:
			lo0, hi0 = i, i
		case x < a[lo0]:
			lo0 = i
		case x > a[hi0]:
			hi0 = i
		}
	}
	if lo0 >= 0 {
		z.Min, z.Max, z.HasNonNull = box(a[lo0]), box(a[hi0]), true
	}
	return z
}

// MaterializeInto fills dst (length NumCols) with row i's values.
func (cs *ColumnStore) MaterializeInto(dst Row, i int) {
	for c := range cs.cols {
		dst[c] = cs.cols[c].value(i)
	}
}

// RowAt materializes row i as a freshly allocated Row.
func (cs *ColumnStore) RowAt(i int) Row {
	r := make(Row, len(cs.cols))
	cs.MaterializeInto(r, i)
	return r
}

// Rows materializes every live row, in ordinal order. The result is freshly
// allocated (rows are carved from chunked slabs); mutating the store
// afterwards does not affect it. Column-major storage makes this the slow
// path — scans should read columns through Col instead.
func (cs *ColumnStore) Rows() []Row {
	ncols := len(cs.cols)
	out := make([]Row, 0, cs.Live())
	const chunk = 1024
	var slab []sqlvalue.Value
	for i := 0; i < cs.n; i++ {
		if bitSet(cs.dead, i) {
			continue
		}
		if len(slab) < ncols {
			slab = make([]sqlvalue.Value, min(chunk, cs.Live()-len(out))*ncols)
		}
		r := Row(slab[:ncols:ncols])
		slab = slab[ncols:]
		cs.MaterializeInto(r, i)
		out = append(out, r)
	}
	return out
}

// Freeze returns a copy of the store's headers pinned at the current length
// and dead bitmap — O(NumCols), no payload copying. Readers of the copy see
// exactly the rows live at the freeze, forever, while the receiver remains
// mutable: its appends land beyond the copy's lengths, and the two bitmaps an
// in-place write could reach (dead rows, and a NULL appended into an existing
// word) are marked shared on both sides, so the next such write clones first.
//
// Freeze is also the thaw direction: calling it on an immutable version's
// store yields a mutable store over the same arrays, which is how rollback
// restores a table or view head from the last published version.
func (cs *ColumnStore) Freeze() *ColumnStore {
	for c := range cs.cols {
		cs.cols[c].sharedNulls = true
	}
	cs.sharedDead = true
	f := *cs
	f.cols = append([]column(nil), cs.cols...)
	return &f
}

// AppendRowKey appends the composite hash key of the given columns of row i
// — Value.AppendKey bytes joined by 0x1f, the same layout used everywhere a
// row key is built — and returns the extended buffer.
func (cs *ColumnStore) AppendRowKey(dst []byte, i int, cols []int) []byte {
	for _, c := range cols {
		dst = cs.cols[c].value(i).AppendKey(dst)
		dst = append(dst, '\x1f')
	}
	return dst
}
