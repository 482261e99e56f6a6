package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"matview/internal/faults"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// Checkpoint format (all integers little-endian):
//
//	magic "MVWCKPT1"
//	u64 epoch
//	u32 table count
//	  per table:  str name | u32 cols | indexes | u64 rows | row data
//	u32 view count
//	  per view:   str name | str defSQL | u8 health | u32 cols | indexes | u64 rows | row data
//	u32 CRC-32C of everything above
//
// indexes = u32 count, then per index: u32 col count, u32 cols..., u8 unique.
// Values encode as a kind byte plus a fixed payload (u64 bits for ints,
// dates, and floats; length-prefixed bytes for strings), chosen for exact
// round-tripping — a recovered float is bit-identical to the stored one.
//
// A checkpoint is epoch-consistent by construction: it serializes a pinned
// *storage.Snapshot, so every table and view belongs to the same committed
// epoch regardless of concurrent DML. Publication is crash-atomic: write to
// checkpoint.tmp, fsync, rename to checkpoint-<epoch>.ckpt, fsync the
// directory. Recovery takes the newest file whose CRC verifies; the previous
// checkpoint is kept as a fallback until the next one lands.

const ckptMagic = "MVWCKPT1"

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
// definitions and live rows.
type checkpointRelation struct {
	name    string
	indexes []storage.IndexDef
	rows    []storage.Row
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

// crcWriter folds every written byte into a running CRC-32C.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

func (c *crcWriter) u8(v uint8) error { _, err := c.Write([]byte{v}); return err }
func (c *crcWriter) u32(v uint32) error {
	_, err := c.Write(binary.LittleEndian.AppendUint32(nil, v))
	return err
}
func (c *crcWriter) u64(v uint64) error {
	_, err := c.Write(binary.LittleEndian.AppendUint64(nil, v))
	return err
}
func (c *crcWriter) str(s string) error {
	if err := c.u32(uint32(len(s))); err != nil {
		return err
	}
	_, err := c.Write([]byte(s))
	return err
}

// Value kind tags mirror sqlvalue.Kind but are pinned here so the on-disk
// format cannot drift if the enum is reordered.
const (
	tagNull   = 0
	tagBool   = 1
	tagInt    = 2
	tagFloat  = 3
	tagString = 4
	tagDate   = 5
)

func (c *crcWriter) value(v sqlvalue.Value) error {
	switch v.Kind() {
	case sqlvalue.KindNull:
		return c.u8(tagNull)
	case sqlvalue.KindBool:
		if err := c.u8(tagBool); err != nil {
			return err
		}
		if v.Bool() {
			return c.u8(1)
		}
		return c.u8(0)
	case sqlvalue.KindInt:
		if err := c.u8(tagInt); err != nil {
			return err
		}
		return c.u64(uint64(v.Int()))
	case sqlvalue.KindFloat:
		if err := c.u8(tagFloat); err != nil {
			return err
		}
		return c.u64(math.Float64bits(v.Float()))
	case sqlvalue.KindString:
		if err := c.u8(tagString); err != nil {
			return err
		}
		return c.str(v.Str())
	case sqlvalue.KindDate:
		if err := c.u8(tagDate); err != nil {
			return err
		}
		return c.u64(uint64(v.DateDays()))
	default:
		return fmt.Errorf("wal: cannot checkpoint value kind %v", v.Kind())
	}
}

func (c *crcWriter) indexDefs(defs []storage.IndexDef) error {
	if err := c.u32(uint32(len(defs))); err != nil {
		return err
	}
	for _, d := range defs {
		if err := c.u32(uint32(len(d.Cols))); err != nil {
			return err
		}
		for _, col := range d.Cols {
			if err := c.u32(uint32(col)); err != nil {
				return err
			}
		}
		u := uint8(0)
		if d.Unique {
			u = 1
		}
		if err := c.u8(u); err != nil {
			return err
		}
	}
	return nil
}

// relation serializes one table's or view's data: its index definitions,
// then its column store — col count, live row count, and the live rows in
// ordinal order. Tombstones are not written: a recovered store starts
// compact.
func (c *crcWriter) relation(d *storage.Data) error {
	if err := c.indexDefs(d.IndexDefs()); err != nil {
		return err
	}
	cs := d.Store()
	if err := c.u32(uint32(cs.NumCols())); err != nil {
		return err
	}
	if err := c.u64(uint64(cs.Live())); err != nil {
		return err
	}
	scratch := make(storage.Row, cs.NumCols())
	for i := 0; i < cs.Len(); i++ {
		if cs.IsDead(i) {
			continue
		}
		cs.MaterializeInto(scratch, i)
		for _, v := range scratch {
			if err := c.value(v); err != nil {
				return err
			}
		}
	}
	return nil
}

func ckptPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.ckpt", epoch))
}

// writeCheckpoint serializes spec to a temp file and atomically publishes it.
// On any failure (including injected faults) the temp file is abandoned and
// the previous checkpoint remains authoritative.
func writeCheckpoint(dir string, spec CheckpointSpec, inj *faults.Injector) (string, error) {
	snap := spec.Snap
	tmp := filepath.Join(dir, "checkpoint.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("wal: creating checkpoint temp file: %w", err)
	}
	w := &crcWriter{w: bufio.NewWriterSize(f, 1<<20)}
	fail := func(err error) (string, error) {
		_ = f.Close()
		return "", err
	}
	if err := inj.Maybe(faults.SiteWALCheckpointWrite); err != nil {
		// Simulate a crash mid-serialization: a partial temp file remains on
		// disk and is ignored by recovery (it is never renamed).
		_, _ = f.WriteString(ckptMagic[:4])
		return fail(fmt.Errorf("wal: checkpoint write: %w", err))
	}
	if _, err := w.Write([]byte(ckptMagic)); err != nil {
		return fail(err)
	}
	if err := w.u64(snap.Epoch()); err != nil {
		return fail(err)
	}
	tables := snap.Tables()
	if err := w.u32(uint32(len(tables))); err != nil {
		return fail(err)
	}
	for _, name := range tables {
		if err := w.str(name); err != nil {
			return fail(err)
		}
		if err := w.relation(snap.TableData(name)); err != nil {
			return fail(err)
		}
	}
	// Only views with materialized data in this snapshot are checkpointed;
	// order deterministically by name.
	views := make([]ViewMeta, 0, len(spec.Views))
	for _, vm := range spec.Views {
		if snap.ViewData(vm.Name) != nil {
			views = append(views, vm)
		}
	}
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	if err := w.u32(uint32(len(views))); err != nil {
		return fail(err)
	}
	for _, vm := range views {
		if err := w.str(vm.Name); err != nil {
			return fail(err)
		}
		if err := w.str(vm.DefSQL); err != nil {
			return fail(err)
		}
		if err := w.u8(uint8(vm.Health)); err != nil {
			return fail(err)
		}
		if err := w.relation(snap.ViewData(vm.Name)); err != nil {
			return fail(err)
		}
	}
	crc := w.crc
	if _, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc)); err != nil {
		return fail(err)
	}
	if err := w.w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := inj.Maybe(faults.SiteWALCheckpointRename); err != nil {
		// Crash window between the fsync'd temp file and its publication:
		// the temp file stays behind, recovery ignores it.
		return "", fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	final := ckptPath(dir, snap.Epoch())
	if err := os.Rename(tmp, final); err != nil {
		return "", fmt.Errorf("wal: publishing checkpoint: %w", err)
	}
	syncDir(dir)
	pruneCheckpoints(dir, 2)
	return final, nil
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

// pruneCheckpoints removes all but the newest keep checkpoint files.
func pruneCheckpoints(dir string, keep int) {
	files := listCheckpoints(dir)
	for i := keep; i < len(files); i++ {
		_ = os.Remove(files[i])
	}
}

// ckptReader decodes a checkpoint from an in-memory buffer.
type ckptReader struct {
	data []byte
	off  int
}

var errCkptTruncated = fmt.Errorf("wal: checkpoint truncated")

func (r *ckptReader) take(n int) ([]byte, error) {
	if r.off+n > len(r.data) {
		return nil, errCkptTruncated
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *ckptReader) u8() (uint8, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *ckptReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *ckptReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *ckptReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *ckptReader) value() (sqlvalue.Value, error) {
	tag, err := r.u8()
	if err != nil {
		return sqlvalue.Null, err
	}
	switch tag {
	case tagNull:
		return sqlvalue.Null, nil
	case tagBool:
		b, err := r.u8()
		if err != nil {
			return sqlvalue.Null, err
		}
		return sqlvalue.NewBool(b != 0), nil
	case tagInt:
		u, err := r.u64()
		if err != nil {
			return sqlvalue.Null, err
		}
		return sqlvalue.NewInt(int64(u)), nil
	case tagFloat:
		u, err := r.u64()
		if err != nil {
			return sqlvalue.Null, err
		}
		return sqlvalue.NewFloat(math.Float64frombits(u)), nil
	case tagString:
		s, err := r.str()
		if err != nil {
			return sqlvalue.Null, err
		}
		return sqlvalue.NewString(s), nil
	case tagDate:
		u, err := r.u64()
		if err != nil {
			return sqlvalue.Null, err
		}
		return sqlvalue.NewDate(int64(u)), nil
	default:
		return sqlvalue.Null, fmt.Errorf("wal: unknown value tag %d", tag)
	}
}

func (r *ckptReader) indexDefs() ([]storage.IndexDef, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	defs := make([]storage.IndexDef, 0, n)
	for i := uint32(0); i < n; i++ {
		nc, err := r.u32()
		if err != nil {
			return nil, err
		}
		cols := make([]int, nc)
		for j := range cols {
			c, err := r.u32()
			if err != nil {
				return nil, err
			}
			cols[j] = int(c)
		}
		u, err := r.u8()
		if err != nil {
			return nil, err
		}
		defs = append(defs, storage.IndexDef{Cols: cols, Unique: u != 0})
	}
	return defs, nil
}

// relation decodes what crcWriter.relation wrote into rel.
func (r *ckptReader) relation(rel *checkpointRelation) (err error) {
	if rel.indexes, err = r.indexDefs(); err != nil {
		return err
	}
	nc, err := r.u32()
	if err != nil {
		return err
	}
	nr, err := r.u64()
	if err != nil {
		return err
	}
	rel.rows = make([]storage.Row, 0, nr)
	for i := uint64(0); i < nr; i++ {
		row := make(storage.Row, nc)
		for j := range row {
			if row[j], err = r.value(); err != nil {
				return err
			}
		}
		rel.rows = append(rel.rows, row)
	}
	return nil
}

// parseCheckpoint validates and decodes one checkpoint file's bytes.
func parseCheckpoint(data []byte) (*checkpointData, error) {
	if len(data) < len(ckptMagic)+4 || !strings.HasPrefix(string(data[:len(ckptMagic)]), ckptMagic) {
		return nil, fmt.Errorf("wal: not a checkpoint file")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: checkpoint CRC mismatch")
	}
	r := &ckptReader{data: body, off: len(ckptMagic)}
	ck := &checkpointData{}
	var err error
	if ck.epoch, err = r.u64(); err != nil {
		return nil, err
	}
	nt, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nt; i++ {
		var t checkpointRelation
		if t.name, err = r.str(); err != nil {
			return nil, err
		}
		if err = r.relation(&t); err != nil {
			return nil, err
		}
		ck.tables = append(ck.tables, t)
	}
	nv, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nv; i++ {
		var v checkpointView
		if v.name, err = r.str(); err != nil {
			return nil, err
		}
		if v.defSQL, err = r.str(); err != nil {
			return nil, err
		}
		h, err := r.u8()
		if err != nil {
			return nil, err
		}
		v.health = int(h)
		if err = r.relation(&v.checkpointRelation); err != nil {
			return nil, err
		}
		ck.views = append(ck.views, v)
	}
	return ck, nil
}

// loadNewestCheckpoint returns the newest checkpoint whose CRC verifies, or
// nil if none exists. A corrupt newest checkpoint (e.g. bit rot) falls back
// to the previous one — the log retains every epoch past it.
func loadNewestCheckpoint(dir string) (*checkpointData, error) {
	for _, path := range listCheckpoints(dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		ck, err := parseCheckpoint(data)
		if err != nil {
			continue
		}
		return ck, nil
	}
	return nil, nil
}
