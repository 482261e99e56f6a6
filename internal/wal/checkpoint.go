package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"matview/internal/faults"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// Checkpoint format (all integers little-endian):
//
//	magic "MVWCKPT2"
//	u64 epoch
//	u32 table count
//	  per table:  str name | relation
//	u32 view count
//	  per view:   str name | str defSQL | u8 health | relation
//	u32 CRC-32C of everything above
//
//	relation = indexes | u32 cols | u64 rows | per column: u8 kind | u32 n | n × u64 null words | payload
//	indexes  = u32 count, then per index: u32 col count, u32 cols..., u8 unique
//	str      = u32 length | bytes
//
// A relation is the store's own layout: its live rows in ordinal order, a
// column at a time, each column's blocks written one after another. The kind
// byte is the sqlvalue.Kind (so reordering that enum changes the format).
// The null bitmap is the column's null words through the last that holds a
// NULL, so it may be shorter than the rows. The payload is one value per
// row: u64 for BIGINT, DATE and BOOLEAN (0 or 1); the Float64bits of a
// DOUBLE, so a recovered float is bit-identical; str for a VARCHAR; nothing
// for a KindNull column, every row of which is NULL. Recovery decodes each
// column into a typed array and hands the arrays to storage.NewColumnStoreOf,
// which cuts them into blocks.
//
// A checkpoint is epoch-consistent by construction: it serializes a pinned
// *storage.Snapshot, so every table and view belongs to the same committed
// epoch regardless of concurrent DML. Publication is crash-atomic: write to
// checkpoint.tmp, fsync, rename to checkpoint-<epoch>.ckpt, fsync the
// directory. Recovery takes the newest file whose CRC verifies; the previous
// checkpoint is kept as a fallback until the next one lands.

const ckptMagic = "MVWCKPT2"

// ViewMeta is the non-row state a checkpoint must carry per view: its
// definition SQL (re-parsed and re-registered on recovery) and its health
// (a Stale view must come back Stale, not silently trusted).
type ViewMeta struct {
	Name   string
	DefSQL string
	Health int
}

// CheckpointSpec is the input to Checkpoint: a pinned snapshot plus the view
// metadata the storage layer doesn't know (definitions live in the
// optimizer/maintainer, health in the lifecycle ledger). Views without
// materialized data in the snapshot (e.g. a deferred build in flight) are
// skipped.
type CheckpointSpec struct {
	Snap  *storage.Snapshot
	Views []ViewMeta
}

// checkpointRelation is one checkpointed table or view: its name, index
// definitions and rows.
type checkpointRelation struct {
	name    string
	indexes []storage.IndexDef
	store   *storage.ColumnStore
}

type checkpointView struct {
	checkpointRelation
	defSQL string
	health int
}

type checkpointData struct {
	epoch  uint64
	tables []checkpointRelation
	views  []checkpointView
}

// write writes ck's image to w, one buffer per relation.
func (ck *checkpointData) write(w io.Writer) error {
	var crc uint32
	var err error
	flush := func(b []byte) []byte {
		crc = crc32.Update(crc, castagnoli, b)
		if err == nil {
			_, err = w.Write(b)
		}
		return b[:0]
	}
	b := binary.LittleEndian.AppendUint64([]byte(ckptMagic), ck.epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ck.tables)))
	for _, t := range ck.tables {
		b = flush(appendRelation(appendStr(b, t.name), t.indexes, t.store))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ck.views)))
	for _, v := range ck.views {
		b = append(appendStr(appendStr(b, v.name), v.defSQL), uint8(v.health))
		b = flush(appendRelation(b, v.indexes, v.store))
	}
	b = flush(b)
	flush(binary.LittleEndian.AppendUint32(b, crc))
	return err
}

func appendStr(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

// appendRelation appends a relation's image. A store with tombstones is
// written through its Rewrite: live rows only, in ordinal order.
func appendRelation(b []byte, indexes []storage.IndexDef, cs *storage.ColumnStore) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(indexes)))
	for _, d := range indexes {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(d.Cols)))
		for _, c := range d.Cols {
			b = binary.LittleEndian.AppendUint32(b, uint32(c))
		}
		unique := uint8(0)
		if d.Unique {
			unique = 1
		}
		b = append(b, unique)
	}
	if cs.Live() != cs.Len() {
		cs = cs.Rewrite()
	}
	n := cs.Len()
	b = binary.LittleEndian.AppendUint32(b, uint32(cs.NumCols()))
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	const wordsPerBlock = storage.BlockRows / 64
	for c := 0; c < cs.NumCols(); c++ {
		col := cs.Col(c)
		nw := 0 // through the last word holding a NULL
		for blk := 0; blk < cs.NumBlocks(); blk++ {
			nulls := col.Block(blk).Nulls
			for w := len(nulls) - 1; w >= 0; w-- {
				if nulls[w] != 0 {
					nw = blk*wordsPerBlock + w + 1
					break
				}
			}
		}
		b = binary.LittleEndian.AppendUint32(append(b, uint8(col.Kind)), uint32(nw))
		for w := 0; w < nw; w++ {
			var word uint64
			if nulls := col.Block(w / wordsPerBlock).Nulls; w%wordsPerBlock < len(nulls) {
				word = nulls[w%wordsPerBlock]
			}
			b = binary.LittleEndian.AppendUint64(b, word)
		}
		for blk := 0; blk < cs.NumBlocks(); blk++ {
			rows := min(storage.BlockRows, n-blk*storage.BlockRows)
			switch blk := col.Block(blk); col.Kind {
			case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
				for _, x := range blk.Ints[:rows] {
					b = binary.LittleEndian.AppendUint64(b, uint64(x))
				}
			case sqlvalue.KindFloat:
				for _, x := range blk.Floats[:rows] {
					b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
				}
			case sqlvalue.KindString:
				for _, s := range blk.Strs[:rows] {
					b = appendStr(b, s)
				}
			}
		}
	}
	return b
}

func ckptPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.ckpt", epoch))
}

// writeCheckpoint serializes spec to a temp file and atomically publishes it.
// On any failure (including injected faults) the temp file is abandoned and
// the previous checkpoint remains authoritative.
func writeCheckpoint(dir string, spec CheckpointSpec, inj *faults.Injector) error {
	snap := spec.Snap
	ck := &checkpointData{epoch: snap.Epoch()}
	for _, name := range snap.Tables() {
		d := snap.TableData(name)
		ck.tables = append(ck.tables, checkpointRelation{name, d.IndexDefs(), d.Store()})
	}
	// Only views with materialized data in this snapshot are checkpointed;
	// order deterministically by name.
	for _, vm := range spec.Views {
		if d := snap.ViewData(vm.Name); d != nil {
			ck.views = append(ck.views, checkpointView{checkpointRelation{vm.Name, d.IndexDefs(), d.Store()}, vm.DefSQL, vm.Health})
		}
	}
	sort.Slice(ck.views, func(i, j int) bool { return ck.views[i].name < ck.views[j].name })

	tmp := filepath.Join(dir, "checkpoint.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: creating checkpoint temp file: %w", err)
	}
	if err := inj.Maybe(faults.SiteWALCheckpointWrite); err != nil {
		// Simulate a crash mid-serialization: a partial temp file remains on
		// disk and is ignored by recovery (it is never renamed).
		_, _ = f.WriteString(ckptMagic[:4])
		_ = f.Close()
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	err = ck.write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := inj.Maybe(faults.SiteWALCheckpointRename); err != nil {
		// Crash window between the fsync'd temp file and its publication:
		// the temp file stays behind, recovery ignores it.
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := os.Rename(tmp, ckptPath(dir, snap.Epoch())); err != nil {
		return fmt.Errorf("wal: publishing checkpoint: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss (best-effort;
// not all platforms support it).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// listCheckpoints returns checkpoint files sorted newest-epoch first.
func listCheckpoints(dir string) []string {
	entries, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil {
		return nil
	}
	sort.Sort(sort.Reverse(sort.StringSlice(entries)))
	return entries
}

// pruneCheckpoints removes every checkpoint but the two at epochs prev and
// cur: older ones, and any a recovery skipped as corrupt.
func pruneCheckpoints(dir string, prev, cur uint64) {
	for _, path := range listCheckpoints(dir) {
		if path != ckptPath(dir, prev) && path != ckptPath(dir, cur) {
			_ = os.Remove(path)
		}
	}
}

// ckptReader decodes a checkpoint body. The first short read or bad field
// is kept in err and ends the input, so every later read yields zeros and a
// decode checks once, at the end.
type ckptReader struct {
	data []byte
	off  int
	err  error
}

func (r *ckptReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wal: checkpoint "+format, args...)
	}
	r.off = len(r.data)
}

// room reports whether n more bytes remain, failing the decode if not. Every
// count is held to it before anything is allocated for it.
func (r *ckptReader) room(n uint64) bool {
	if n > uint64(len(r.data)-r.off) {
		r.fail("truncated: %d bytes wanted, %d left", n, len(r.data)-r.off)
		return false
	}
	return true
}

func (r *ckptReader) take(n uint64) []byte {
	if !r.room(n) {
		return nil
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// uint reads an n-byte little-endian integer.
func (r *ckptReader) uint(n uint64) uint64 {
	var v uint64
	for i, c := range r.take(n) {
		v |= uint64(c) << (8 * i)
	}
	return v
}

func (r *ckptReader) str() string { return string(r.take(r.uint(4))) }

// count reads a u32 count of items at least size bytes long each.
func (r *ckptReader) count(size uint64) int {
	n := r.uint(4)
	if !r.room(n * size) {
		return 0
	}
	return int(n)
}

// words decodes n u64s through conv into a fresh array.
func words[T any](r *ckptReader, n int, conv func(uint64) T) []T {
	b := r.take(8 * uint64(n))
	if b == nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = conv(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// relation decodes what appendRelation wrote.
func (r *ckptReader) relation() ([]storage.IndexDef, *storage.ColumnStore) {
	indexes := make([]storage.IndexDef, r.count(5))
	for i := range indexes {
		cols := make([]int, r.count(4))
		for j := range cols {
			cols[j] = int(r.uint(4))
		}
		indexes[i] = storage.IndexDef{Cols: cols, Unique: r.uint(1) != 0}
	}
	cols := make([]storage.Arrays, r.count(5))
	for _, d := range indexes {
		for _, c := range d.Cols {
			if c >= len(cols) {
				r.fail("indexes column %d of %d", c, len(cols))
			}
		}
	}
	// Every column holds at least a bit per row: a KindNull column's bitmap.
	rows := r.uint(8)
	if len(cols) == 0 && rows > 0 {
		r.fail("has %d rows and no columns", rows)
	}
	if !r.room(rows / 8) {
		rows = 0
	}
	for c := range cols {
		cols[c] = r.column(int(rows))
	}
	if r.err != nil {
		return nil, nil
	}
	return indexes, storage.NewColumnStoreOf(int(rows), cols)
}

// column decodes one column of n rows.
func (r *ckptReader) column(n int) storage.Arrays {
	v := storage.Arrays{Kind: sqlvalue.Kind(r.uint(1))}
	nw := r.count(8)
	if nw > (n+63)/64 {
		r.fail("null bitmap of %d words for %d rows", nw, n)
	}
	v.Nulls = words(r, nw, func(w uint64) uint64 { return w })
	if k := len(v.Nulls); k == (n+63)/64 && n%64 != 0 && v.Nulls[k-1]>>(n%64) != 0 {
		r.fail("NULL past the last of %d rows", n)
	}
	switch v.Kind {
	case sqlvalue.KindNull:
		set := 0
		for _, w := range v.Nulls {
			set += bits.OnesCount64(w)
		}
		if set != n {
			r.fail("KindNull column with %d NULLs in %d rows", set, n)
		}
	case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
		v.Ints = words(r, n, func(x uint64) int64 { return int64(x) })
		if v.Kind == sqlvalue.KindBool && slices.ContainsFunc(v.Ints, func(x int64) bool { return x>>1 != 0 }) {
			r.fail("BOOLEAN payload other than 0 or 1")
		}
	case sqlvalue.KindFloat:
		v.Floats = words(r, n, math.Float64frombits)
	case sqlvalue.KindString:
		if r.room(4 * uint64(n)) {
			v.Strs = make([]string, n)
			for i := range v.Strs {
				v.Strs[i] = r.str()
			}
		}
	default:
		r.fail("column kind %d", v.Kind)
	}
	return v
}

// parseCheckpoint validates and decodes one checkpoint file's bytes.
func parseCheckpoint(data []byte) (*checkpointData, error) {
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("wal: not a %s checkpoint", ckptMagic)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: checkpoint CRC mismatch")
	}
	r := &ckptReader{data: body[len(ckptMagic):]}
	ck := &checkpointData{epoch: r.uint(8)}
	ck.tables = make([]checkpointRelation, r.count(20))
	for i := range ck.tables {
		t := &ck.tables[i]
		t.name = r.str()
		t.indexes, t.store = r.relation()
	}
	ck.views = make([]checkpointView, r.count(25))
	for i := range ck.views {
		v := &ck.views[i]
		v.name, v.defSQL, v.health = r.str(), r.str(), int(r.uint(1))
		v.indexes, v.store = r.relation()
	}
	if r.off != len(r.data) {
		r.fail("has %d bytes past its last view", len(r.data)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return ck, nil
}

// loadNewestCheckpoint returns the newest checkpoint whose CRC verifies, or
// nil when dir holds no checkpoint. A corrupt newest checkpoint (e.g. bit
// rot) falls back to the older one: the log keeps every record past it (see
// Manager.Checkpoint). Checkpoint files none of which verifies are refused,
// never skipped: bootstrapping under them would replay the log onto the
// wrong base and lose what they held.
func loadNewestCheckpoint(dir string) (*checkpointData, error) {
	files := listCheckpoints(dir)
	var newestErr error
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err == nil {
			var ck *checkpointData
			if ck, err = parseCheckpoint(data); err == nil {
				return ck, nil
			}
		}
		if newestErr == nil {
			newestErr = fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
	}
	if newestErr != nil {
		return nil, fmt.Errorf("wal: none of the %d checkpoint files in %s verifies (newest: %v); refusing to start over them", len(files), dir, newestErr)
	}
	return nil, nil
}
