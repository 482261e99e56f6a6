package storage

import (
	"testing"

	"matview/internal/catalog"
	"matview/internal/sqlvalue"
)

func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if err := c.Add(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "grp", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "note", Type: sqlvalue.KindString},
		},
		PrimaryKey: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInsertAndArity(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	if err := tb.Insert(Row{sqlvalue.NewInt(1), sqlvalue.NewInt(10), sqlvalue.NewString("a")}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(Row{sqlvalue.NewInt(1)}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := tb.Insert(Row{sqlvalue.Null, sqlvalue.NewInt(1), sqlvalue.Null}); err == nil {
		t.Fatal("NULL in NOT NULL column accepted")
	}
	if err := tb.Insert(Row{sqlvalue.NewInt(2), sqlvalue.NewInt(10), sqlvalue.Null}); err != nil {
		t.Fatalf("NULL in nullable column rejected: %v", err)
	}
	if err := tb.Insert(Row{sqlvalue.NewInt(3), sqlvalue.NewFloat(1), sqlvalue.Null}); err == nil {
		t.Fatal("DOUBLE in a BIGINT column accepted")
	}
	if v := flat(tb.Store(), 1); v.Kind != sqlvalue.KindInt || len(v.Ints) != 2 {
		t.Fatalf("a refused value reached the column: kind %s, %d payloads", v.Kind, len(v.Ints))
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
}

func TestUniqueIndex(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	for i := int64(1); i <= 3; i++ {
		if err := tb.Insert(Row{sqlvalue.NewInt(i), sqlvalue.NewInt(i % 2), sqlvalue.Null}); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := tb.BuildIndex([]int{0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Probe(Row{sqlvalue.NewInt(2)}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("probe = %v", got)
	}
	if got := idx.Probe(Row{sqlvalue.NewInt(99)}); len(got) != 0 {
		t.Fatalf("probe(99) = %v", got)
	}
	// Duplicate key now rejected on insert.
	if err := tb.Insert(Row{sqlvalue.NewInt(2), sqlvalue.NewInt(0), sqlvalue.Null}); err == nil {
		t.Fatal("duplicate key accepted by unique index")
	}
	// Failed insert must not leave the row behind.
	if tb.NumRows() != 3 {
		t.Fatalf("rows after failed insert = %d", tb.NumRows())
	}
	// Building a unique index over duplicate data fails.
	if _, err := tb.BuildIndex([]int{1}, true); err == nil {
		t.Fatal("unique index over duplicates built")
	}
	// Non-unique index over the same data is fine.
	gidx, err := tb.BuildIndex([]int{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := gidx.Probe(Row{sqlvalue.NewInt(1)}); len(got) != 2 {
		t.Fatalf("grp=1 probe = %v", got)
	}
	if tb.LookupIndex([]int{1}) != gidx {
		t.Fatal("LookupIndex failed")
	}
	if tb.LookupIndex([]int{2}) != nil {
		t.Fatal("LookupIndex invented an index")
	}
}

func TestIndexMaintainedOnInsert(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	if _, err := tb.BuildIndex([]int{0}, true); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(Row{sqlvalue.NewInt(7), sqlvalue.NewInt(1), sqlvalue.Null}); err != nil {
		t.Fatal(err)
	}
	idx := tb.LookupIndex([]int{0})
	if got := idx.Probe(Row{sqlvalue.NewInt(7)}); len(got) != 1 {
		t.Fatalf("index not maintained: %v", got)
	}
}

func TestViews(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	mv, err := db.PutView("v", StoreOf(2, []Row{{sqlvalue.NewInt(1), sqlvalue.NewInt(2)}}))
	if err != nil || db.View("v") != mv || mv.RowCount() != 1 || mv.NumCols != 2 {
		t.Fatal("view storage broken")
	}
	if db.View("missing") != nil {
		t.Fatal("phantom view")
	}
	if !db.DropView("v") || db.DropView("v") {
		t.Fatal("drop semantics wrong")
	}
}

func TestRefreshStats(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	for i := int64(0); i < 5; i++ {
		if err := tb.Insert(Row{sqlvalue.NewInt(i), sqlvalue.NewInt(0), sqlvalue.Null}); err != nil {
			t.Fatal(err)
		}
	}
	db.RefreshStats()
	if got := db.Catalog.Table("t").RowCount; got != 5 {
		t.Fatalf("RowCount = %d", got)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{sqlvalue.NewInt(1)}
	c := r.Clone()
	c[0] = sqlvalue.NewInt(2)
	if r[0].Int() != 1 {
		t.Fatal("Clone aliased")
	}
}

func TestViewIndexes(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	mv, err := db.PutView("v", StoreOf(2, []Row{
		{sqlvalue.NewInt(1), sqlvalue.NewInt(10)},
		{sqlvalue.NewInt(2), sqlvalue.NewInt(20)},
	}))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := mv.BuildIndex([]int{0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Probe(Row{sqlvalue.NewInt(2)}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("probe = %v", got)
	}
	if mv.LookupIndex([]int{0}) == nil || mv.LookupIndex([]int{1}) != nil {
		t.Fatal("LookupIndex wrong")
	}
	// Mutate rows then patch: the index must see the change.
	mv.Append([]Row{{sqlvalue.NewInt(3), sqlvalue.NewInt(30)}})
	mv.SetInt(0, 1, 11)
	if err := mv.PatchIndexes(); err != nil {
		t.Fatal(err)
	}
	if got := mv.LookupIndex([]int{0}).Probe(Row{sqlvalue.NewInt(3)}); len(got) != 1 || got[0] != 2 {
		t.Fatalf("patched probe = %v", got)
	}
	if got := mv.LookupIndex([]int{0}).Probe(Row{sqlvalue.NewInt(1)}); len(got) != 1 || mv.RowAt(got[0])[1].Int() != 11 {
		t.Fatalf("probe of the updated row = %v", got)
	}
	// A second row under a unique key is refused.
	mv.Append([]Row{{sqlvalue.NewInt(3), sqlvalue.NewInt(31)}})
	if err := mv.PatchIndexes(); err == nil {
		t.Fatal("duplicate key entered a unique view index")
	}
	// Re-materialization preserves declared indexes.
	mv2, err := db.PutView("v", StoreOf(2, []Row{{sqlvalue.NewInt(9), sqlvalue.NewInt(90)}}))
	if err != nil {
		t.Fatal(err)
	}
	if mv2.LookupIndex([]int{0}) == nil {
		t.Fatal("PutView dropped the declared index")
	}
	if got := mv2.LookupIndex([]int{0}).Probe(Row{sqlvalue.NewInt(9)}); len(got) != 1 {
		t.Fatalf("replacement probe = %v", got)
	}
	// Replacement rows that violate the unique index are refused, and the
	// previous view keeps its rows and its index.
	if _, err := db.PutView("v", StoreOf(2, []Row{intRow(5, 1), intRow(5, 2)})); err == nil {
		t.Fatal("PutView accepted rows that violate the unique index")
	}
	if db.View("v") != mv2 || mv2.LookupIndex([]int{0}) == nil {
		t.Fatal("a refused PutView replaced the view or lost its index")
	}
}

func TestDeleteWhere(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	for i := int64(0); i < 6; i++ {
		if err := tb.Insert(Row{sqlvalue.NewInt(i), sqlvalue.NewInt(i % 2), sqlvalue.Null}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.BuildIndex([]int{0}, true); err != nil {
		t.Fatal(err)
	}
	deleted, err := tb.DeleteWhere(func(r Row) bool { return r[1].Int() == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if deleted.Len() != 3 || tb.NumRows() != 3 {
		t.Fatalf("deleted %d, kept %d", deleted.Len(), tb.NumRows())
	}
	// Index patched: deleted keys gone, survivors probe correctly.
	idx := tb.LookupIndex([]int{0})
	if got := idx.Probe(Row{sqlvalue.NewInt(0)}); len(got) != 0 {
		t.Fatalf("deleted key still indexed: %v", got)
	}
	if got := idx.Probe(Row{sqlvalue.NewInt(1)}); len(got) != 1 || tb.RowAt(got[0])[0].Int() != 1 {
		t.Fatalf("surviving key lost: %v", got)
	}
	// Half the rows are dead, so the table was rewritten: no tombstones left.
	if st := tb.Store(); st.Len() != 3 || st.Live() != 3 {
		t.Fatalf("store after delete: len %d live %d", st.Len(), st.Live())
	}
	// A deleted unique key can be inserted again.
	if err := tb.Insert(Row{sqlvalue.NewInt(0), sqlvalue.NewInt(0), sqlvalue.Null}); err != nil {
		t.Fatalf("re-insert of a deleted key: %v", err)
	}
	// No matches: no-op.
	if d, err := tb.DeleteWhere(func(Row) bool { return false }); err != nil || d != nil {
		t.Fatalf("no-op delete = %v, %v", d, err)
	}
}

// TestInsertRowsBatch: a batch is checked whole before anything is written.
// A key repeated within the batch is refused with the text a key the index
// already holds gets, and leaves the store and the index as they were; a
// clean batch lands and is indexed by one patch. Deleting it hands the rows
// back as a batch of the declared types, a column of NULLs included.
func TestInsertRowsBatch(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	if _, err := tb.BuildIndex([]int{0}, true); err != nil {
		t.Fatal(err)
	}
	row := func(id int64) Row { return Row{sqlvalue.NewInt(id), sqlvalue.NewInt(id % 2), sqlvalue.Null} }
	if err := tb.InsertRows([]Row{row(1), row(2)}); err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]Row{{row(3), row(4), row(3)}, {row(5), row(2)}} {
		err := tb.InsertRows(batch)
		if err == nil || err.Error() != "storage: duplicate key in unique index on t" {
			t.Fatalf("batch %v: err %v", batch, err)
		}
		if tb.Store().Len() != 2 || tb.patched != 2 {
			t.Fatalf("a refused batch wrote: %d rows, %d patched", tb.Store().Len(), tb.patched)
		}
	}
	if err := tb.InsertRows([]Row{row(3), row(4)}); err != nil {
		t.Fatal(err)
	}
	if got := tb.LookupIndex([]int{0}).Probe(Row{sqlvalue.NewInt(4)}); len(got) != 1 || got[0] != 3 {
		t.Fatalf("probe of the batch's last key: %v", got)
	}
	tail := tb.Tail(2)
	deleted, err := tb.DeleteOrds([]int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*ColumnStore{tail, deleted} {
		if k := b.Col(2).Kind; k != sqlvalue.KindString || b.Len() != 2 || !b.Col(2).IsNull(1) {
			t.Fatalf("batch column 2: kind %v, %d rows", k, b.Len())
		}
	}
	if got := deleted.Value(0, 0).Int(); got != 4 {
		t.Fatalf("first victim gathered first: got id %d", got)
	}
}

// TestBuildIndexDropsLocator: Locator answers with the declared index on
// exactly its columns when there is one. A CREATE INDEX on columns the
// writer already keeps a locator over drops that locator, so later writes
// do not patch an index nothing probes; a locator over other columns stays.
func TestBuildIndexDropsLocator(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	for i := range int64(50) {
		if err := tb.Insert(Row{sqlvalue.NewInt(i), sqlvalue.NewInt(i % 7), sqlvalue.Null}); err != nil {
			t.Fatal(err)
		}
	}
	grp, note := tb.Locator([]int{1}), tb.Locator([]int{2})
	if len(tb.locators) != 2 || tb.LookupIndex([]int{1}) != nil {
		t.Fatalf("%d locators, declared index %v: want two locators and no index", len(tb.locators), tb.LookupIndex([]int{1}))
	}
	idx, err := tb.BuildIndex([]int{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Locator([]int{1}); got != idx || got == grp {
		t.Fatal("Locator does not answer with the declared index")
	}
	if len(tb.locators) != 1 || tb.locators[0] != note {
		t.Fatalf("after the index: locators over %v, want only the one over [2]", tb.locators)
	}
	if err := tb.Insert(Row{sqlvalue.NewInt(50), sqlvalue.NewInt(3), sqlvalue.Null}); err != nil {
		t.Fatal(err)
	}
	if got := tb.Locator([]int{1}).Probe(Row{sqlvalue.NewInt(3)}); len(got) != 8 {
		t.Fatalf("probe after a write: %d rows of group 3, want 8", len(got))
	}
}
