// Column-major storage. A ColumnStore holds each column as typed arrays —
// int64 for BIGINT/DATE/BOOLEAN payloads, float64 for DOUBLE, Go strings for
// VARCHAR — plus null bits, instead of a heap of materialized Row slices.
// Rows are organized into fixed-size blocks of BlockRows rows (aligned with
// the execution engine's batch size), and a block is the unit of storage: a
// column is a list of blocks, each with its own payload array, null words and
// min/max zone map, maintained eagerly at mutation time, which lets scans
// prove "no row in this block can satisfy the predicate" and skip the block
// without touching its values.
//
// A column has one representation: its blocks' typed arrays and null words.
// Its kind is fixed by the first non-NULL value stored in it, and a value of
// another kind is refused — Table.Insert checks the declared type before
// appending, and a view write that carries one is a program error, so
// AppendRow panics naming both kinds.
//
// A row is added by appending to every column and removed by setting its bit
// in the store's dead bitmap (a tombstone), so an ordinal names the same row
// for the store's whole life. Len is the physical length — the bound of the
// ordinal space, dead rows included; Live is the number of rows a reader
// sees. Zone maps stay conservative bounds after a delete. Rewrite copies the
// live rows, in order, into a fresh store once the dead ones are worth
// reclaiming.
//
// A frozen copy (see Freeze) shares every block with the store it was taken
// from. Appends land past its length, so they never touch what it reads. A
// write to an existing row — an aggregate view's group updated in place, a
// NULL bit in a word the copy covers — goes through own, which clones the
// block (and the column's block list, while a copy shares it) the first time
// the store writes a block a frozen copy reads: copy on write, a block at a
// time. The block the clone replaces is retired, and a later clone in the
// column copies into it instead of allocating once no snapshot can read it
// (the database's horizon, see mvcc.go).
package storage

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"matview/internal/sqlvalue"
)

// BlockRows is the number of rows per storage block. It matches the
// engine's default batch size so a default morsel covers exactly one block.
const BlockRows = 1 << BlockShift

// BlockShift is log2(BlockRows): row i lies in block i>>BlockShift, at
// position i&(BlockRows-1) there.
const BlockShift = 10

const blockMask = BlockRows - 1

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

// Block is one column's rows of one block, indexed from the block's first
// row: the payload array of the column's kind (none while every value is
// NULL) and its null words, which may be shorter than the rows (an
// out-of-range word means "no NULLs there"; nil, none at all).
type Block struct {
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []uint64

	zone Zone
	// gen is the generation of the store that made or cloned the block: the
	// store writes it in place only while its own generation is the same,
	// that is, while no frozen copy reads it.
	gen uint64
	// stale marks a zone an in-place write left behind; the store's
	// refold brings it back to the block's values.
	stale bool
}

// clone returns a copy of the block with arrays of its own, at generation gen.
func (b *Block) clone(gen uint64) Block {
	var c Block
	b.cloneInto(&c, gen)
	return c
}

// cloneInto makes dst a copy of the block at generation gen, copying into
// dst's arrays where they have room.
func (b *Block) cloneInto(dst *Block, gen uint64) {
	*dst = Block{
		Ints:   copyInto(dst.Ints, b.Ints),
		Floats: copyInto(dst.Floats, b.Floats),
		Strs:   copyInto(dst.Strs, b.Strs),
		Nulls:  copyInto(dst.Nulls, b.Nulls),
		zone:   b.zone,
		gen:    gen,
		stale:  b.stale,
	}
}

// copyInto returns a copy of src in dst's array, or in a new one when dst
// has no room; nil for nil.
func copyInto[T any](dst, src []T) []T {
	if src == nil || dst == nil {
		return slices.Clone(src)
	}
	return append(dst[:0], src...)
}

// generations hands out store generations; every Freeze gives both sides a
// new one, so no block made before it counts as the head's own.
var generations atomic.Uint64

func newGen() uint64 { return generations.Add(1) }

// column is one column of a ColumnStore: every full block in a list, and the
// last one by value. A frozen copy copies the column, so it keeps its own
// last block's header (lengths, zone) while the live store appends into the
// same arrays past the copy's length; and it shares the list, which the live
// store appends to past the copy's length, or clones before writing a slot
// the copy reads.
type column struct {
	Kind sqlvalue.Kind // KindNull until the first non-NULL value fixes it

	full    []*Block // blocks 0 … len-1, each BlockRows rows
	tail    Block    // the last block: partial, or full until the next append
	listGen uint64   // full's backing array is the store's own at this generation
	// spare is the rest of the slab the next blocks' headers and arrays are
	// cut from. A frozen copy shares it, so a head thawed from the copy cuts
	// past what any head has cut.
	spare *slab
	// retired holds the blocks own replaced while a published version read
	// them, oldest first, each with the publish that first leaves it out:
	// once the horizon reaches that publish, nothing reads the block, and
	// the next clone copies into it instead of allocating. A frozen copy
	// starts with none.
	retired []retiredBlock

	hasNull bool // some row was stored NULL
}

// retiredBlock is a block no head reads, free for reuse from publish tag on.
type retiredBlock struct {
	blk *Block
	tag uint64
}

// block returns block b of the column.
func (c *column) block(b int) *Block { return blockOf(c.full, &c.tail, b) }

func bitSet(bm []uint64, i int) bool {
	w := i >> 6
	return w < len(bm) && bm[w]&(1<<(uint(i)&63)) != 0
}

// ColView is a read-only view of one column's blocks, handed to the
// execution engine so scans and compiled predicates can read payloads
// directly: row i is position i&(BlockRows-1) of Block(i>>BlockShift),
// which is Full[i>>BlockShift] for every block but the last. A loop reading
// rows by ordinal copies Full and Last into locals first.
type ColView struct {
	Kind     sqlvalue.Kind
	Full     []*Block
	Last     *Block
	nullable bool
}

// Block returns block b's arrays. A scan morsel reads one block's; a read
// by ordinal finds its row's block first.
func (v *ColView) Block(b int) *Block { return blockOf(v.Full, v.Last, b) }

// blockOf is block b of a column whose blocks are full then last.
func blockOf(full []*Block, last *Block, b int) *Block {
	if b < len(full) {
		return full[b]
	}
	return last
}

// Nullable reports whether any row of the column may be NULL; false means
// no block has a null word.
func (v *ColView) Nullable() bool { return v.nullable }

// IsNull reports whether row i of the column is NULL.
func (v ColView) IsNull(i int) bool { return bitSet(v.Block(i>>BlockShift).Nulls, i&blockMask) }

// Value boxes row i of the column as a sqlvalue.Value.
func (v ColView) Value(i int) sqlvalue.Value {
	return boxAt(v.Kind, v.Block(i>>BlockShift), i&blockMask)
}

// boxAt boxes position j of block b of a column of kind k.
func boxAt(k sqlvalue.Kind, b *Block, j int) sqlvalue.Value {
	if bitSet(b.Nulls, j) {
		return sqlvalue.Null
	}
	switch k {
	case sqlvalue.KindInt:
		return sqlvalue.NewInt(b.Ints[j])
	case sqlvalue.KindDate:
		return sqlvalue.NewDate(b.Ints[j])
	case sqlvalue.KindBool:
		return sqlvalue.NewBool(b.Ints[j] != 0)
	case sqlvalue.KindFloat:
		return sqlvalue.NewFloat(b.Floats[j])
	case sqlvalue.KindString:
		return sqlvalue.NewString(b.Strs[j])
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
	full, last := v.Full, v.Last
	switch v.Kind {
	case sqlvalue.KindInt:
		for k, rid := range rids {
			if b, j := blockOf(full, last, int(rid)>>BlockShift), int(rid)&blockMask; !bitSet(b.Nulls, j) {
				dst[off+k*stride] = sqlvalue.NewInt(b.Ints[j])
			}
		}
	case sqlvalue.KindDate:
		for k, rid := range rids {
			if b, j := blockOf(full, last, int(rid)>>BlockShift), int(rid)&blockMask; !bitSet(b.Nulls, j) {
				dst[off+k*stride] = sqlvalue.NewDate(b.Ints[j])
			}
		}
	case sqlvalue.KindBool:
		for k, rid := range rids {
			if b, j := blockOf(full, last, int(rid)>>BlockShift), int(rid)&blockMask; !bitSet(b.Nulls, j) {
				dst[off+k*stride] = sqlvalue.NewBool(b.Ints[j] != 0)
			}
		}
	case sqlvalue.KindFloat:
		for k, rid := range rids {
			if b, j := blockOf(full, last, int(rid)>>BlockShift), int(rid)&blockMask; !bitSet(b.Nulls, j) {
				dst[off+k*stride] = sqlvalue.NewFloat(b.Floats[j])
			}
		}
	case sqlvalue.KindString:
		for k, rid := range rids {
			if b, j := blockOf(full, last, int(rid)>>BlockShift), int(rid)&blockMask; !bitSet(b.Nulls, j) {
				dst[off+k*stride] = sqlvalue.NewString(b.Strs[j])
			}
		}
	}
	// KindNull columns leave every slot at the zero Value (NULL).
}

// ColumnStore is column-major row storage: a fixed number of columns, each
// a list of blocks of typed arrays with null words and zone maps, plus the
// dead bitmap that marks deleted rows.
type ColumnStore struct {
	n    int
	cols []column

	// gen is the store's generation: blocks, block lists and a dead bitmap
	// made at it are the store's own to write; Freeze moves it on.
	gen uint64
	// stale lists the blocks, as (column, block) pairs, whose zones an
	// in-place write left behind; refold recomputes them.
	stale [][2]int

	dead    []uint64 // tombstones; may be shorter than n (no dead rows there)
	ndead   int
	deadGen uint64 // dead is the store's own at this generation

	// clock is the database's, while the store is a relation's head; with
	// none, own retires nothing.
	clock *reclaimClock
}

// NewColumnStore returns an empty store with ncols columns.
func NewColumnStore(ncols int) *ColumnStore {
	cs := &ColumnStore{cols: make([]column, ncols), gen: newGen()}
	cs.deadGen = cs.gen
	for c := range cs.cols {
		cs.cols[c].tail = Block{zone: Zone{Tracked: true}, gen: cs.gen}
		cs.cols[c].listGen = cs.gen
	}
	return cs
}

// StoreOf returns a store of ncols columns holding rows, in order.
func StoreOf(ncols int, rows []Row) *ColumnStore {
	cs := NewColumnStore(ncols)
	for _, r := range rows {
		cs.AppendRow(r)
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
func (cs *ColumnStore) Zone(c, b int) Zone { return cs.cols[c].block(b).zone }

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

// Col returns a read-only view of column c's blocks.
func (cs *ColumnStore) Col(c int) ColView {
	col := &cs.cols[c]
	return ColView{Kind: col.Kind, Full: col.full, Last: &col.tail, nullable: col.hasNull}
}

// Value boxes the value at (row i, column c).
func (cs *ColumnStore) Value(i, c int) sqlvalue.Value {
	col := &cs.cols[c]
	return boxAt(col.Kind, col.block(i>>BlockShift), i&blockMask)
}

// Int returns the payload of row i in column c, an INTEGER, DATE or BOOLEAN
// column; the row must not be NULL.
func (cs *ColumnStore) Int(i, c int) int64 {
	return cs.cols[c].block(i >> BlockShift).Ints[i&blockMask]
}

// Float returns the payload of row i in column c, a DOUBLE column; the row
// must not be NULL.
func (cs *ColumnStore) Float(i, c int) float64 {
	return cs.cols[c].block(i >> BlockShift).Floats[i&blockMask]
}

// AppendRow appends one row; r must have NumCols values, each NULL or of its
// column's kind. Values are copied out of r, so the caller keeps ownership of
// the slice. The last block's zone maps are updated incrementally.
func (cs *ColumnStore) AppendRow(r Row) {
	n := cs.n
	for c := range cs.cols {
		col := &cs.cols[c]
		if n > 0 && n&blockMask == 0 {
			cs.push(col)
		}
		cs.append(col, r[c], n)
		if z := &col.tail.zone; z.Tracked {
			col.foldLast(z, n&blockMask)
		}
	}
	cs.n = n + 1
}

// slab is memory for the next blocks of a column: their headers and their
// payload arrays, one after another.
type slab struct {
	hdrs []Block
	Block
}

// push moves a full last block into the list and starts the next one. The
// list grows past every frozen copy's length; the new block is the store's
// own, with room for a whole block, as a store this long fills it. Its
// header and array are cut from a slab of as many blocks as the column has
// (at most slabBlocks), so a long column's blocks lie side by side in memory
// as one array's elements would, and a scan streams through them.
func (cs *ColumnStore) push(col *column) {
	if col.spare == nil {
		col.spare = new(slab)
	}
	sp := col.spare
	n := min(len(col.full)+1, slabBlocks)
	if len(sp.hdrs) == 0 {
		sp.hdrs = make([]Block, n)
	}
	blk := &sp.hdrs[0]
	sp.hdrs = sp.hdrs[1:]
	*blk = col.tail
	if len(col.full) == cap(col.full) {
		col.listGen = cs.gen // append reallocates: the new array is the store's own
	}
	col.full = append(col.full, blk)
	col.tail = Block{zone: Zone{Tracked: true}, gen: cs.gen}
	switch col.Kind {
	case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
		if len(sp.Ints) < BlockRows {
			sp.Ints = make([]int64, n*BlockRows)
		}
		col.tail.Ints, sp.Ints = sp.Ints[:0:BlockRows], sp.Ints[BlockRows:]
	case sqlvalue.KindFloat:
		if len(sp.Floats) < BlockRows {
			sp.Floats = make([]float64, n*BlockRows)
		}
		col.tail.Floats, sp.Floats = sp.Floats[:0:BlockRows], sp.Floats[BlockRows:]
	case sqlvalue.KindString:
		if len(sp.Strs) < BlockRows {
			sp.Strs = make([]string, n*BlockRows)
		}
		col.tail.Strs, sp.Strs = sp.Strs[:0:BlockRows], sp.Strs[BlockRows:]
	}
}

// slabBlocks bounds the blocks one slab holds: 512 KB of INTEGER payloads.
const slabBlocks = 64

// append stores v at ordinal n (the current length), the next row of the
// last block. A value of a kind other than the column's is a program error.
func (cs *ColumnStore) append(col *column, v sqlvalue.Value, n int) {
	j := n & blockMask
	if v.IsNull() {
		if w := j >> 6; w < len(col.tail.Nulls) {
			cs.own(col, n>>BlockShift) // a word a frozen copy may read
		} else {
			for len(col.tail.Nulls) <= w {
				col.tail.Nulls = append(col.tail.Nulls, 0) // past every frozen copy's words
			}
		}
		col.tail.Nulls[j>>6] |= 1 << (uint(j) & 63)
		col.hasNull = true
		appendZero(col.Kind, &col.tail)
		return
	}
	if k := v.Kind(); col.Kind == sqlvalue.KindNull {
		cs.adopt(col, k)
	} else if col.Kind != k {
		panic(fmt.Sprintf("storage: %s value appended to a %s column", k, col.Kind))
	}
	appendZero(col.Kind, &col.tail)
	setPayload(col.Kind, &col.tail, j, v)
}

// adopt fixes the column's kind, giving every existing block (all of whose
// rows are NULL) zero payloads. The blocks are new, and so is the list: a
// frozen copy keeps reading a KindNull column.
func (cs *ColumnStore) adopt(col *column, k sqlvalue.Kind) {
	col.Kind = k
	full := make([]*Block, len(col.full))
	for b, old := range col.full {
		full[b] = new(Block)
		*full[b] = old.clone(cs.gen)
		zeros(k, full[b], BlockRows)
	}
	col.full, col.listGen = full, cs.gen
	col.tail = col.tail.clone(cs.gen)
	zeros(k, &col.tail, cs.n-len(full)*BlockRows)
}

// zeros gives b n zero payloads of kind k, with room for a whole block.
func zeros(k sqlvalue.Kind, b *Block, n int) {
	switch k {
	case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
		b.Ints = make([]int64, n, BlockRows)
	case sqlvalue.KindFloat:
		b.Floats = make([]float64, n, BlockRows)
	case sqlvalue.KindString:
		b.Strs = make([]string, n, BlockRows)
	}
}

func appendZero(k sqlvalue.Kind, b *Block) {
	switch k {
	case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
		b.Ints = append(b.Ints, 0)
	case sqlvalue.KindFloat:
		b.Floats = append(b.Floats, 0)
	case sqlvalue.KindString:
		b.Strs = append(b.Strs, "")
	}
}

func setPayload(k sqlvalue.Kind, b *Block, j int, v sqlvalue.Value) {
	switch k {
	case sqlvalue.KindInt:
		b.Ints[j] = v.Int()
	case sqlvalue.KindDate:
		b.Ints[j] = v.DateDays()
	case sqlvalue.KindBool:
		b.Ints[j] = boolPayload(v)
	case sqlvalue.KindFloat:
		b.Floats[j] = v.Float()
	case sqlvalue.KindString:
		b.Strs[j] = v.Str()
	}
}

// own returns block b of col for writing in place. The first write since
// the last Freeze to a block a frozen copy reads clones it, after cloning
// the list when a frozen copy shares that too; the clone is the store's own
// until the next Freeze, and the block it replaces is retired.
func (cs *ColumnStore) own(col *column, b int) *Block {
	if b >= len(col.full) {
		if col.tail.gen != cs.gen {
			blk := cs.reusable(col)
			col.tail.cloneInto(blk, cs.gen)
			col.tail, *blk = *blk, col.tail // blk keeps the replaced header
			cs.retire(col, blk)
		}
		return &col.tail
	}
	if blk := col.full[b]; blk.gen == cs.gen {
		return blk
	}
	if col.listGen != cs.gen {
		col.full, col.listGen = slices.Clone(col.full), cs.gen
	}
	blk := cs.reusable(col)
	col.full[b].cloneInto(blk, cs.gen)
	col.full[b], blk = blk, col.full[b]
	cs.retire(col, blk)
	return col.full[b]
}

// reusable returns col's oldest retired block once the horizon has passed
// its tag — no snapshot can read it any more — or a new block.
func (cs *ColumnStore) reusable(col *column) *Block {
	if len(col.retired) == 0 || cs.clock == nil || col.retired[0].tag > cs.clock.horizon {
		return new(Block)
	}
	blk := col.retired[0].blk
	col.retired = slices.Delete(col.retired, 0, 1)
	return blk
}

// retire keeps blk, which the head no longer reads, for reuse once no
// snapshot can read it either: from the next publish on, which is the first
// to leave it out. A column keeps at most as many as it has blocks.
func (cs *ColumnStore) retire(col *column, blk *Block) {
	if cs.clock != nil && len(col.retired) <= len(col.full) {
		col.retired = append(col.retired, retiredBlock{blk, cs.clock.published + 1})
	}
}

// setInt writes x into row i of column c, an INTEGER column, in place: the
// row keeps its ordinal, and the block's zone is stale until the next
// refold. It is the write of incremental aggregate maintenance (a group's
// COUNT_BIG and integer SUMs); a frozen copy never sees it.
func (cs *ColumnStore) setInt(i, c int, x int64) {
	blk := cs.written(i, c, sqlvalue.KindInt)
	blk.Ints[i&blockMask] = x
}

// setFloat is setInt for a DOUBLE column.
func (cs *ColumnStore) setFloat(i, c int, x float64) {
	blk := cs.written(i, c, sqlvalue.KindFloat)
	blk.Floats[i&blockMask] = x
}

// written returns the block of row i in column c for an in-place write of a
// non-NULL payload of kind k: owned, its zone marked stale, the row's null
// bit cleared.
func (cs *ColumnStore) written(i, c int, k sqlvalue.Kind) *Block {
	col := &cs.cols[c]
	if col.Kind != k {
		panic(fmt.Sprintf("storage: %s value written to a %s column", k, col.Kind))
	}
	b, j := i>>BlockShift, i&blockMask
	blk := cs.own(col, b)
	if !blk.stale {
		blk.stale = true
		cs.stale = append(cs.stale, [2]int{c, b})
	}
	if w := j >> 6; w < len(blk.Nulls) {
		blk.Nulls[w] &^= 1 << (uint(j) & 63)
	}
	return blk
}

// refold recomputes the zones in-place writes left stale, each from its
// block's values as AppendRow would have folded them. A relation refolds at
// each patch, and Freeze before it publishes, so no version holds a stale
// zone.
func (cs *ColumnStore) refold() {
	if len(cs.stale) == 0 {
		return // a frozen copy's: nothing to write
	}
	for _, cb := range cs.stale {
		col := &cs.cols[cb[0]]
		blk := col.block(cb[1])
		rows := BlockRows
		if cb[1] >= len(col.full) {
			rows = cs.n - len(col.full)*BlockRows
		}
		blk.zone, blk.stale = blockZone(col.Kind, blk, rows), false
	}
	cs.stale = cs.stale[:0]
}

// foldLast folds row j of the last block, the value just appended, into a
// block's statistics straight from the typed array, boxing a value only when
// it becomes the new minimum or maximum. A NaN leaves the block untracked: it
// compares equal to everything, so folding it would pin Min and Max and hide
// the block's other values.
func (c *column) foldLast(z *Zone, j int) {
	b := &c.tail
	if bitSet(b.Nulls, j) {
		z.HasNull = true
		return
	}
	switch c.Kind {
	case sqlvalue.KindInt:
		foldAt(z, b.Ints[j], sqlvalue.Value.Int, sqlvalue.NewInt)
	case sqlvalue.KindDate:
		foldAt(z, b.Ints[j], sqlvalue.Value.DateDays, sqlvalue.NewDate)
	case sqlvalue.KindBool:
		foldAt(z, b.Ints[j], boolPayload, boolValue)
	case sqlvalue.KindFloat:
		if x := b.Floats[j]; x != x {
			z.Tracked = false
		} else {
			foldAt(z, x, sqlvalue.Value.Float, sqlvalue.NewFloat)
		}
	case sqlvalue.KindString:
		foldAt(z, b.Strs[j], sqlvalue.Value.Str, sqlvalue.NewString)
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

// Delete marks row i dead and reports whether it was live before. Payloads,
// null bits and zone maps are left alone; only the dead bitmap changes, and
// it is cloned first when a frozen copy reads it.
func (cs *ColumnStore) Delete(i int) bool {
	if i < 0 || i >= cs.n || bitSet(cs.dead, i) {
		return false
	}
	if cs.deadGen != cs.gen {
		cs.dead, cs.deadGen = append(make([]uint64, 0, (cs.n+63)/64), cs.dead...), cs.gen
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
// the same kinds, payloads, null bits and zones — made column by column:
// each column's live runs are copied into an exactly sized typed array, cut
// into blocks, and each block's zone is folded from its array with
// foldLast's rules.
func (cs *ColumnStore) Rewrite() *ColumnStore {
	live := cs.Live()
	cols := make([]Arrays, len(cs.cols))
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

// Arrays is one column's rows as flat typed arrays — what a checkpoint
// decodes, a compaction copies and a gather collects — before
// NewColumnStoreOf cuts them into blocks: the payload array of Kind (none for
// KindNull) and null bits, which may be shorter than the rows.
type Arrays struct {
	Kind   sqlvalue.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []uint64
}

// NewColumnStoreOf returns a store of n rows over the given column arrays,
// with no tombstones and each block's zone folded from the arrays as
// AppendRow would have folded it. It takes the arrays over and cuts them into
// blocks without copying. Each must hold exactly n payloads of its kind (none
// for KindNull, every row of which is NULL) and a null bitmap of at most
// (n+63)/64 words with no bit set at or past n.
func NewColumnStoreOf(n int, cols []Arrays) *ColumnStore {
	cs := &ColumnStore{n: n, cols: make([]column, len(cols)), gen: newGen()}
	cs.deadGen = cs.gen
	nfull := max(0, (n-1)>>BlockShift) // every block but the last
	headers := make([]Block, nfull*len(cols))
	for c, a := range cols {
		col := &cs.cols[c]
		col.Kind, col.listGen = a.Kind, cs.gen
		if nfull > 0 {
			col.full = make([]*Block, nfull)
		}
		for b := 0; b <= nfull; b++ {
			lo, hi := b*BlockRows, min((b+1)*BlockRows, n)
			blk := &col.tail
			if b < nfull {
				blk = &headers[c*nfull+b]
				col.full[b] = blk
			}
			*blk = Block{gen: cs.gen}
			switch a.Kind {
			case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
				blk.Ints = a.Ints[lo:hi:hi]
			case sqlvalue.KindFloat:
				blk.Floats = a.Floats[lo:hi:hi]
			case sqlvalue.KindString:
				blk.Strs = a.Strs[lo:hi:hi]
			}
			if wlo, whi := lo>>6, min((hi+63)>>6, len(a.Nulls)); wlo < whi &&
				slices.ContainsFunc(a.Nulls[wlo:whi], func(w uint64) bool { return w != 0 }) {
				blk.Nulls, col.hasNull = a.Nulls[wlo:whi:whi], true
			}
			blk.zone = blockZone(a.Kind, blk, hi-lo)
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
	cols := make([]Arrays, len(cs.cols))
	for c := range cs.cols {
		src := &cs.cols[c]
		dst := Arrays{Kind: gatherKind(src.Kind, kinds[c])}
		switch dst.Kind {
		case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
			dst.Ints, ints = ints[:n:n], ints[n:]
		case sqlvalue.KindFloat:
			dst.Floats, floats = floats[:n:n], floats[n:]
		case sqlvalue.KindString:
			dst.Strs, strs = strs[:n:n], strs[n:]
		}
		for k, ord := range ords {
			blk, j := src.block(ord>>BlockShift), ord&blockMask
			switch {
			case src.Kind == sqlvalue.KindNull || bitSet(blk.Nulls, j):
				dst.Nulls = setBit(dst.Nulls, k)
			case dst.Ints != nil:
				dst.Ints[k] = blk.Ints[j]
			case dst.Floats != nil:
				dst.Floats[k] = blk.Floats[j]
			default:
				dst.Strs[k] = blk.Strs[j]
			}
		}
		cols[c] = dst
	}
	return NewColumnStoreOf(n, cols)
}

// setBit sets bit i of a bitmap it grows as needed.
func setBit(bm []uint64, i int) []uint64 {
	for len(bm) <= i>>6 {
		bm = append(bm, 0)
	}
	bm[i>>6] |= 1 << (uint(i) & 63)
	return bm
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
func (cs *ColumnStore) compact(c, live int) Arrays {
	src := &cs.cols[c]
	dst := Arrays{Kind: src.Kind}
	switch src.Kind {
	case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
		dst.Ints = make([]int64, 0, live)
	case sqlvalue.KindFloat:
		dst.Floats = make([]float64, 0, live)
	case sqlvalue.KindString:
		dst.Strs = make([]string, 0, live)
	}
	n, nulls := 0, 0
	for b := 0; b*BlockRows < cs.n; b++ {
		blk, base := src.block(b), b*BlockRows
		for i, end := base, min(base+BlockRows, cs.n); i < end; {
			lo, hi := cs.LiveRun(i, end)
			switch src.Kind {
			case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
				dst.Ints = append(dst.Ints, blk.Ints[lo-base:hi-base]...)
			case sqlvalue.KindFloat:
				dst.Floats = append(dst.Floats, blk.Floats[lo-base:hi-base]...)
			case sqlvalue.KindString:
				dst.Strs = append(dst.Strs, blk.Strs[lo-base:hi-base]...)
			}
			if blk.Nulls != nil {
				for r := lo; r < hi; r++ {
					if bitSet(blk.Nulls, r-base) {
						dst.Nulls = setBit(dst.Nulls, n+r-lo)
						nulls++
					}
				}
			}
			n += hi - lo
			i = hi
		}
	}
	if nulls == live {
		// Only NULLs are left: appended one by one, they would fix no kind.
		return Arrays{Kind: sqlvalue.KindNull, Nulls: dst.Nulls}
	}
	return dst
}

// blockZone is the zone AppendRow folds over the first rows rows of a block
// of a column of kind k.
func blockZone(k sqlvalue.Kind, b *Block, rows int) Zone {
	switch k {
	case sqlvalue.KindInt:
		return foldTyped(b.Ints[:rows], b.Nulls, sqlvalue.NewInt)
	case sqlvalue.KindDate:
		return foldTyped(b.Ints[:rows], b.Nulls, sqlvalue.NewDate)
	case sqlvalue.KindBool:
		return foldTyped(b.Ints[:rows], b.Nulls, boolValue)
	case sqlvalue.KindFloat:
		return foldTyped(b.Floats[:rows], b.Nulls, sqlvalue.NewFloat)
	case sqlvalue.KindString:
		return foldTyped(b.Strs[:rows], b.Nulls, sqlvalue.NewString)
	}
	return Zone{Tracked: true, HasNull: rows > 0} // a KindNull column: every row is NULL
}

// foldTyped is foldLast over a in row order, boxing only the two extremes:
// the first of equal extremes wins, and a NaN stops the fold with the block
// untracked.
func foldTyped[T cmp.Ordered](a []T, nulls []uint64, box func(T) sqlvalue.Value) Zone {
	z := Zone{Tracked: true}
	lo, hi := -1, -1
	for i, x := range a {
		if !z.Tracked {
			break
		}
		switch {
		case bitSet(nulls, i):
			z.HasNull = true
		case x != x: // NaN
			z.Tracked = false
		case lo < 0:
			lo, hi = i, i
		case x < a[lo]:
			lo = i
		case x > a[hi]:
			hi = i
		}
	}
	if lo >= 0 {
		z.Min, z.Max, z.HasNonNull = box(a[lo]), box(a[hi]), true
	}
	return z
}

// MaterializeInto fills dst (length NumCols) with row i's values.
func (cs *ColumnStore) MaterializeInto(dst Row, i int) {
	b, j := i>>BlockShift, i&blockMask
	for c := range cs.cols {
		col := &cs.cols[c]
		dst[c] = boxAt(col.Kind, col.block(b), j)
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
// mutable: its appends land beyond the copy's lengths, and both sides move
// to a new generation, so neither owns a block, block list or dead bitmap
// the other reads — the first in-place write or tombstone clones it (own,
// Delete).
//
// Freeze is also the thaw direction: calling it on an immutable version's
// store yields a mutable store over the same blocks, which is how rollback
// restores a table or view head from the last published version.
func (cs *ColumnStore) Freeze() *ColumnStore {
	cs.refold()
	f := *cs
	f.cols = slices.Clone(cs.cols)
	for c := range f.cols {
		f.cols[c].retired = nil
	}
	f.stale = nil
	cs.gen, f.gen = newGen(), newGen()
	return &f
}

// AppendRowKey appends the composite hash key of the given columns of row i
// — Value.AppendKey bytes joined by 0x1f, the same layout used everywhere a
// row key is built — and returns the extended buffer.
func (cs *ColumnStore) AppendRowKey(dst []byte, i int, cols []int) []byte {
	for _, c := range cols {
		dst = cs.Value(i, c).AppendKey(dst)
		dst = append(dst, '\x1f')
	}
	return dst
}
