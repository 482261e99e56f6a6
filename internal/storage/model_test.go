package storage

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"matview/internal/sqlvalue"
)

// The model: a table and a view are each a plain []Row — the live rows in
// ordinal order. An append adds at the end, a delete removes in place, an
// update changes the row where it is, a rewrite changes nothing. Everything the store
// answers (through the head or through a snapshot pinned at any epoch) must
// be what this slice answers.

// liveOrds returns the ordinals of cs's live rows; position k of the model
// is ordinal liveOrds(cs)[k].
func liveOrds(cs *ColumnStore) []int {
	var out []int
	for i := 0; i < cs.Len(); i++ {
		if !cs.IsDead(i) {
			out = append(out, i)
		}
	}
	return out
}

func sameRow(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if !sqlvalue.Identical(a[c], b[c]) {
			return false
		}
	}
	return true
}

// checkStore holds one store and its indexes to the model.
func checkStore(t *testing.T, what string, cs *ColumnStore, indexes map[string]*Index, model []Row) {
	t.Helper()
	if cs.Live() != len(model) {
		t.Fatalf("%s: %d live rows, model has %d", what, cs.Live(), len(model))
	}
	rows := cs.Rows()
	ords := liveOrds(cs)
	if len(rows) != len(model) || len(ords) != len(model) {
		t.Fatalf("%s: Rows() has %d rows, %d ordinals are live, model has %d", what, len(rows), len(ords), len(model))
	}
	for k, want := range model {
		if !sameRow(rows[k], want) || !sameRow(cs.RowAt(ords[k]), want) {
			t.Fatalf("%s: row %d (ordinal %d) = %v / %v, model has %v", what, k, ords[k], rows[k], cs.RowAt(ords[k]), want)
		}
	}
	// Tombstone accounting: per-block counts and live runs agree with the bits.
	for b := 0; b < cs.NumBlocks(); b++ {
		lo, hi := b*BlockRows, min((b+1)*BlockRows, cs.Len())
		dead, covered := 0, 0
		for i := lo; i < hi; i++ {
			if cs.IsDead(i) {
				dead++
			}
		}
		if got := cs.BlockDead(b); got != dead {
			t.Fatalf("%s: BlockDead(%d) = %d, %d bits are set", what, b, got, dead)
		}
		for i := lo; i < hi; {
			from, to := cs.LiveRun(i, hi)
			for j := from; j < to; j++ {
				if cs.IsDead(j) {
					t.Fatalf("%s: LiveRun(%d,%d) = [%d,%d) holds dead row %d", what, i, hi, from, to, j)
				}
			}
			covered += to - from
			i = to
		}
		if covered != hi-lo-dead {
			t.Fatalf("%s: live runs of block %d cover %d rows, %d are live", what, b, covered, hi-lo-dead)
		}
		// Zone maps bound every live value of the block.
		for c := 0; c < cs.NumCols(); c++ {
			z := cs.Zone(c, b)
			if !z.Tracked {
				continue
			}
			for i := lo; i < hi; i++ {
				if cs.IsDead(i) {
					continue
				}
				v := cs.Value(i, c)
				if v.IsNull() {
					if !z.HasNull {
						t.Fatalf("%s: block %d col %d holds a live NULL, zone %+v", what, b, c, z)
					}
					continue
				}
				cmin, ok1 := sqlvalue.Compare(v, z.Min)
				cmax, ok2 := sqlvalue.Compare(v, z.Max)
				if !z.HasNonNull || !ok1 || !ok2 || cmin < 0 || cmax > 0 {
					t.Fatalf("%s: block %d col %d: live value %s outside zone %+v", what, b, c, v, z)
				}
			}
		}
	}
	// Every index probe equals a scan, and no bucket holds anything else.
	for key, idx := range indexes {
		want := map[string][]int{}
		for _, ord := range ords {
			k := string(cs.AppendRowKey(nil, ord, idx.Cols))
			want[k] = append(want[k], ord)
		}
		entries, keys := 0, 0
		for _, shard := range idx.shards {
			keys += len(shard)
			for _, bucket := range shard {
				entries += len(bucket)
			}
		}
		if entries != len(ords) || keys != len(want) {
			t.Fatalf("%s: index %s holds %d ordinals under %d keys, a scan finds %d under %d", what, key, entries, keys, len(ords), len(want))
		}
		for k, scan := range want {
			got := append([]int(nil), idx.ProbeKey([]byte(k))...)
			if len(got) != len(scan) {
				t.Fatalf("%s: index %s key %q probes %v, a scan finds %v", what, key, k, got, scan)
			}
			seen := map[int]bool{}
			for _, o := range got {
				seen[o] = true
			}
			for _, o := range scan {
				if !seen[o] {
					t.Fatalf("%s: index %s key %q probes %v, a scan finds %v", what, key, k, got, scan)
				}
			}
		}
	}
}

func cloneRows(in []Row) []Row { return append([]Row(nil), in...) }

// TestStorageAgainstModel drives random interleavings of append, delete by
// ordinals, update, rewrite (the deletes that push a store over its dead-row
// fraction), Commit, RollbackTable and RollbackView, checking the head after
// every step and — at the end, after all the writes that followed them —
// every snapshot pinned along the way. Mixed in are the steps both kinds of
// relation share the index path for: an index built mid-run on the table, one
// built on the view while its row changes are still pending, and an insert
// its table's unique index refuses.
func TestStorageAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runModel(t, seed, 300) })
	}
}

func runModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	if _, err := tb.BuildIndex([]int{0}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.BuildIndex([]int{1}, false); err != nil {
		t.Fatal(err)
	}
	mv, err := db.PutView("v", StoreOf(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mv.BuildIndex([]int{0}, true); err != nil {
		t.Fatal(err)
	}
	db.Commit()

	var table, view []Row                 // the model of the head
	var cTable, cView []Row               // … and of the last committed epoch
	nextID, nextKey := int64(0), int64(0) // fresh unique keys
	type pinned struct {
		snap        *Snapshot
		table, view []Row
	}
	var pins []pinned
	rewrites := 0
	// The mixed-in steps draw from their own source, so the interleaving of
	// the others is the same with or without them.
	more := rand.New(rand.NewSource(-seed))
	tableBuilds, pendingViewBuilds, refused, updates := 0, 0, 0, 0

	newTableRow := func() Row {
		note := sqlvalue.Null
		if rng.Intn(3) > 0 {
			note = sqlvalue.NewString(fmt.Sprintf("n%d", rng.Intn(50)))
		}
		nextID++
		// Ids are not monotone, so a block's zone is set by its content.
		return Row{sqlvalue.NewInt(nextID*7919%100003 - 50000), sqlvalue.NewInt(int64(rng.Intn(9))), note}
	}
	newViewRow := func(key int64) Row {
		val := sqlvalue.Null
		if rng.Intn(4) > 0 {
			val = sqlvalue.NewFloat(rng.Float64()*200 - 100)
		}
		return Row{sqlvalue.NewInt(key), val}
	}
	// pick returns k distinct model positions, ascending.
	pick := func(n, k int) []int {
		pos := rng.Perm(n)[:k]
		sort.Ints(pos)
		return pos
	}
	removeAt := func(rows []Row, pos []int) []Row {
		out := rows[:0:0]
		drop := map[int]bool{}
		for _, p := range pos {
			drop[p] = true
		}
		for p, r := range rows {
			if !drop[p] {
				out = append(out, r)
			}
		}
		return out
	}

	for step := 0; step < steps; step++ {
		if more.Intn(20) == 0 { // an index built (or rebuilt) mid-run on the table
			if _, err := tb.BuildIndex([]int{1, 2}, false); err != nil {
				t.Fatalf("step %d: table BuildIndex: %v", step, err)
			}
			tableBuilds++
		}
		if more.Intn(10) == 0 && len(table) > 0 { // a key the unique index holds
			dup := Row{table[more.Intn(len(table))][0], sqlvalue.NewInt(0), sqlvalue.Null}
			n := tb.Store().Len()
			if err := tb.Insert(dup); err == nil || tb.Store().Len() != n {
				t.Fatalf("step %d: duplicate id %v: Insert returned %v, store %d -> %d rows", step, dup[0], err, n, tb.Store().Len())
			}
			refused++
		}
		if more.Intn(10) == 0 { // a batch repeating a key within itself
			r := newTableRow()
			n := tb.Store().Len()
			if err := tb.InsertRows([]Row{r, newTableRow(), r}); err == nil || tb.Store().Len() != n {
				t.Fatalf("step %d: batch repeating id %v: InsertRows returned %v, store %d -> %d rows", step, r[0], err, n, tb.Store().Len())
			}
			refused++
		}
		if more.Intn(25) == 0 { // the writer's own index on the table, from here on
			tb.Locator([]int{1})
		}
		switch op := rng.Intn(20); {
		case op < 6: // append to the table, sometimes enough to cross a block
			n := 1 + rng.Intn(40)
			if rng.Intn(8) == 0 {
				n += BlockRows
			}
			batch := make([]Row, n)
			for i := range batch {
				batch[i] = newTableRow()
			}
			if more.Intn(2) == 0 { // one statement, one reindex
				if err := tb.InsertRows(batch); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, r := range batch {
					if err := tb.Insert(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			table = append(table, batch...)
		case op < 10 && len(table) > 0: // delete from the table by ordinals
			k := 1 + rng.Intn(min(len(table), 30))
			if rng.Intn(6) == 0 {
				k = len(table)/3 + 1 // a big delete: forces a rewrite soon
			}
			pos := pick(len(table), k)
			ords := liveOrds(tb.Store())
			victims := make([]int, len(pos))
			for i, p := range pos {
				victims[i] = ords[p]
			}
			before := tb.Store()
			batch, err := tb.DeleteOrds(victims)
			if err != nil || batch.Len() != len(pos) {
				t.Fatalf("step %d: DeleteOrds(%d ordinals) returned %v, %v", step, len(pos), batch, err)
			}
			deleted := batch.Rows()
			for i, p := range pos {
				if !sameRow(deleted[i], table[p]) {
					t.Fatalf("step %d: deleted row %v, model row %v", step, deleted[i], table[p])
				}
			}
			if tb.Store() != before {
				rewrites++
				if tb.Store().Len() != tb.Store().Live() {
					t.Fatalf("step %d: a rewritten table still has tombstones", step)
				}
			}
			table = removeAt(table, pos)
		case op < 16: // one maintenance statement on the view
			mv.Locator([]int{0}) // the writer's own index rides along from here on
			for m := 0; m < 1+rng.Intn(6); m++ {
				switch kind := rng.Intn(3); {
				case kind == 0 || len(view) == 0 || mv.Store().Col(1).Kind != sqlvalue.KindFloat:
					// (Nothing can be written in place while column 1 holds
					// no value.)
					nextKey++
					r := newViewRow(nextKey)
					mv.Append([]Row{r})
					view = append(view, r)
				case kind == 1:
					p := rng.Intn(len(view))
					mv.Delete([]int{liveOrds(mv.Store())[p]})
					view = removeAt(view, []int{p})
				default:
					// An in-place write: the row keeps its place, and an index
					// over column 1 (built mid-run) has it re-filed.
					p := rng.Intn(len(view))
					x := rng.Float64()*200 - 100
					mv.SetFloat(liveOrds(mv.Store())[p], 1, x)
					view[p] = Row{view[p][0], sqlvalue.NewFloat(x)}
					updates++
				}
			}
			if more.Intn(4) == 0 { // an index built over changes not yet patched
				if mv.patched == mv.Store().Len() && len(mv.patchDel) == 0 && len(mv.store.stale) == 0 {
					t.Fatalf("step %d: no row change is pending", step)
				}
				if _, err := mv.BuildIndex([]int{1}, false); err != nil {
					t.Fatalf("step %d: view BuildIndex: %v", step, err)
				}
				pendingViewBuilds++
			}
			before := mv.Store()
			if err := mv.PatchIndexes(); err != nil {
				t.Fatalf("step %d: PatchIndexes: %v", step, err)
			}
			if mv.Store() != before {
				rewrites++
			}
		case op < 18:
			db.Commit()
			cTable, cView = cloneRows(table), cloneRows(view)
			if rng.Intn(2) == 0 {
				pins = append(pins, pinned{db.Snapshot(), cTable, cView})
			}
		case op == 18:
			db.RollbackTable("t")
			tb, table = db.Table("t"), cloneRows(cTable)
		default:
			db.RollbackView("v")
			mv, view = db.View("v"), cloneRows(cView)
		}
		tableIndexes := maps.Clone(tb.indexes)
		for i, loc := range tb.locators {
			tableIndexes[fmt.Sprint("locator", i)] = loc
		}
		checkStore(t, fmt.Sprintf("step %d: head table", step), tb.Store(), tableIndexes, table)
		viewIndexes := map[string]*Index{}
		for key, idx := range mv.indexes {
			viewIndexes[key] = idx
		}
		for i, loc := range mv.locators {
			viewIndexes[fmt.Sprint("locator", i)] = loc
		}
		checkStore(t, fmt.Sprintf("step %d: head view", step), mv.Store(), viewIndexes, view)
	}
	if rewrites == 0 || len(pins) < 3 || tableBuilds == 0 || pendingViewBuilds == 0 || refused == 0 || updates == 0 {
		t.Fatalf("the run exercised %d rewrites, %d pinned snapshots, %d table and %d pending view index builds, %d refused inserts, %d in-place updates",
			rewrites, len(pins), tableBuilds, pendingViewBuilds, refused, updates)
	}
	for _, p := range pins {
		td, vd := p.snap.TableData("t"), p.snap.ViewData("v")
		checkStore(t, fmt.Sprintf("snapshot at epoch %d: table", p.snap.Epoch()), td.Store(), td.indexes, p.table)
		checkStore(t, fmt.Sprintf("snapshot at epoch %d: view", p.snap.Epoch()), vd.Store(), vd.indexes, p.view)
		p.snap.Release()
	}
}

// TestSnapshotReadersDuringWrites: readers scan, probe and re-scan snapshots
// pinned at whatever epoch is current while one writer appends, tombstones,
// rewrites, rolls back and commits the table, and writes the view's groups
// in place. Every committed epoch holds table rows in pairs (x, -x) under one
// group, and view groups — over three blocks — whose counts sum to the
// table's live rows; each statement writes groups in at least two blocks. So
// a torn or moving snapshot shows as a non-zero sum or a view total that
// disagrees; under -race a write to a block a snapshot reads shows as a race.
func TestSnapshotReadersDuringWrites(t *testing.T) {
	const groups = 2*BlockRows + 100
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	if _, err := tb.BuildIndex([]int{1}, false); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, groups)
	for g := range rows {
		rows[g] = intRow(int64(g), 0)
	}
	mv, err := db.PutView("v", StoreOf(2, rows))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mv.BuildIndex([]int{0}, true); err != nil {
		t.Fatal(err)
	}
	db.Commit()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := db.Snapshot()
				td, vd := snap.TableData("t"), snap.ViewData("v")
				scan := func() (n int, sum, total int64) {
					st := td.Store()
					ids := st.Col(0)
					for i := 0; i < st.Len(); i++ {
						if !st.IsDead(i) {
							n++
							sum += ids.Value(i).Int()
						}
					}
					vs := vd.Store()
					counts := vs.Col(1)
					for b := 0; b < vs.NumBlocks(); b++ {
						for _, c := range counts.Block(b).Ints[:min(BlockRows, vs.Len()-b*BlockRows)] {
							total += c
						}
					}
					return n, sum, total
				}
				n, sum, total := scan()
				if sum != 0 || n%2 != 0 || n != td.NumRows() {
					t.Errorf("epoch %d: %d rows (NumRows %d) summing to %d", snap.Epoch(), n, td.NumRows(), sum)
				}
				if got := len(td.LookupIndex([]int{1}).Probe(intRow(0))); got != n {
					t.Errorf("epoch %d: index finds %d rows, scan %d", snap.Epoch(), got, n)
				}
				for b := 0; b < td.Store().NumBlocks(); b++ {
					if z := td.Store().Zone(0, b); !z.Tracked {
						t.Errorf("epoch %d: zone %d untracked", snap.Epoch(), b)
					}
				}
				// The view's counts sum to the table's live rows, and its key
				// index finds every group where a scan does.
				if vd.NumRows() != groups || total != int64(n) {
					t.Errorf("epoch %d: view of %d groups totals %d, table has %d rows", snap.Epoch(), vd.NumRows(), total, n)
				}
				for _, g := range []int64{0, BlockRows + 7, groups - 1} {
					if got := vd.LookupIndex([]int{0}).Probe(intRow(g)); len(got) != 1 || vd.RowAt(got[0])[0].Int() != g {
						t.Errorf("epoch %d: view index finds %v for group %d", snap.Epoch(), got, g)
					}
				}
				if n2, sum2, total2 := scan(); n2 != n || sum2 != sum || total2 != total {
					t.Errorf("epoch %d moved under its reader: %d/%d/%d then %d/%d/%d", snap.Epoch(), n, sum, total, n2, sum2, total2)
				}
				snap.Release()
			}
		}()
	}

	rng := rand.New(rand.NewSource(7))
	live, next := 0, int64(1)
	for step := 0; step < 500; step++ {
		before := live
		if live > 0 && rng.Intn(3) == 0 {
			// Delete the oldest pairs; their ordinals come in twos.
			ords := liveOrds(tb.Store())
			k := 2 * (1 + rng.Intn(min(live/2, 40)))
			if _, err := tb.DeleteOrds(ords[:k]); err != nil {
				t.Fatal(err)
			}
			live -= k
		} else {
			for i := 0; i < 1+rng.Intn(30); i++ {
				for _, id := range []int64{next, -next} {
					if err := tb.Insert(tRow(id, 0)); err != nil {
						t.Fatal(err)
					}
				}
				next++
				live += 2
			}
		}
		// The change lands on a group in one block; a count moves between
		// groups in two others, which keeps the total.
		st := mv.Store()
		g1, g2, g3 := rng.Intn(BlockRows), BlockRows+rng.Intn(BlockRows), 2*BlockRows+rng.Intn(groups-2*BlockRows)
		x := int64(rng.Intn(5))
		mv.SetInt(g1, 1, st.Int(g1, 1)+int64(live-before))
		mv.SetInt(g2, 1, st.Int(g2, 1)+x)
		mv.SetInt(g3, 1, st.Int(g3, 1)-x)
		if err := mv.PatchIndexes(); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(10) == 0 {
			// An aborted statement: both heads return to the last commit.
			db.RollbackTable("t")
			db.RollbackView("v")
			tb, mv = db.Table("t"), db.View("v")
			live = tb.NumRows()
			continue
		}
		db.Commit()
	}
	close(done)
	wg.Wait()
}
