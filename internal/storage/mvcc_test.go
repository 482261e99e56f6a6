package storage

import (
	"sync"
	"testing"
	"time"

	"matview/internal/sqlvalue"
)

func intRow(vals ...int64) Row {
	r := make(Row, len(vals))
	for i, v := range vals {
		r[i] = sqlvalue.NewInt(v)
	}
	return r
}

// tRow is a row of testCatalog's table t: (id, grp, NULL note).
func tRow(id, grp int64) Row { return append(intRow(id, grp), sqlvalue.Null) }

// TestSnapshotIsolation: a pinned snapshot keeps seeing exactly the state of
// its epoch while the head takes inserts, deletes, view replacements, and
// further commits.
func TestSnapshotIsolation(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	for i := int64(0); i < 3; i++ {
		if err := tb.Insert(tRow(i, i%2)); err != nil {
			t.Fatal(err)
		}
	}
	db.PutView("v", StoreOf(2, []Row{intRow(1, 10)}))
	epoch := db.Commit()

	snap := db.Snapshot()
	defer snap.Release()
	if snap.Epoch() != epoch {
		t.Fatalf("snapshot epoch = %d, want %d", snap.Epoch(), epoch)
	}

	// Mutate the head heavily: append, delete, replace the view, commit.
	for i := int64(10); i < 20; i++ {
		if err := tb.Insert(tRow(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.DeleteWhere(func(r Row) bool { return r[0].Int() == 1 }); err != nil {
		t.Fatal(err)
	}
	db.PutView("v", StoreOf(2, []Row{intRow(2, 20), intRow(3, 30)}))
	if next := db.Commit(); next != epoch+1 {
		t.Fatalf("next epoch = %d, want %d", next, epoch+1)
	}

	// The snapshot is frozen at its epoch.
	td := snap.TableData("t")
	if td.NumRows() != 3 {
		t.Fatalf("snapshot rows = %d, want 3", td.NumRows())
	}
	for i := int64(0); i < 3; i++ {
		if got := td.RowAt(int(i))[0].Int(); got != i {
			t.Fatalf("snapshot row %d = %d", i, got)
		}
	}
	vd := snap.ViewData("v")
	if vd.NumRows() != 1 || vd.RowAt(0)[1].Int() != 10 {
		t.Fatalf("snapshot view changed: %d rows", vd.NumRows())
	}

	// The head and a fresh snapshot see the new state.
	if tb.NumRows() != 12 {
		t.Fatalf("head rows = %d, want 12", tb.NumRows())
	}
	snap2 := db.Snapshot()
	defer snap2.Release()
	if snap2.TableData("t").NumRows() != 12 || snap2.ViewData("v").NumRows() != 2 {
		t.Fatal("fresh snapshot does not see the new epoch")
	}
}

// TestSnapshotSeesOnlyCommitted: uncommitted head mutations are invisible to
// snapshots taken after them.
func TestSnapshotSeesOnlyCommitted(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	if err := tb.Insert(tRow(1, 0)); err != nil {
		t.Fatal(err)
	}
	db.Commit()
	if err := tb.Insert(tRow(2, 0)); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	defer snap.Release()
	if got := snap.TableData("t").NumRows(); got != 1 {
		t.Fatalf("snapshot saw uncommitted insert: %d rows", got)
	}
	db.Commit()
	snap2 := db.Snapshot()
	defer snap2.Release()
	if got := snap2.TableData("t").NumRows(); got != 2 {
		t.Fatalf("post-commit snapshot rows = %d", got)
	}
}

// TestRollbackRestoresCommitted: rolling back discards uncommitted mutations
// without advancing the epoch, and the next statement starts clean.
func TestRollbackRestoresCommitted(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	if err := tb.Insert(tRow(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.BuildIndex([]int{0}, true); err != nil {
		t.Fatal(err)
	}
	epoch := db.Commit()

	if err := tb.Insert(tRow(2, 0)); err != nil {
		t.Fatal(err)
	}
	db.RollbackTable("t")
	tb = db.Table("t")
	if tb.NumRows() != 1 {
		t.Fatalf("rows after rollback = %d", tb.NumRows())
	}
	if got := db.Commit(); got != epoch {
		t.Fatalf("rollback left the table dirty: epoch %d -> %d", epoch, got)
	}
	// The restored head still takes writes and maintains its index.
	if err := tb.Insert(tRow(5, 1)); err != nil {
		t.Fatal(err)
	}
	if got := tb.LookupIndex([]int{0}).Probe(intRow(5)); len(got) != 1 {
		t.Fatalf("index after rollback+insert: %v", got)
	}
	if got := db.Commit(); got != epoch+1 {
		t.Fatalf("epoch after retry = %d", got)
	}
}

// TestVersionGCPinning: a pinned old epoch blocks reclamation of everything
// newer (the prefix rule); release resumes it.
func TestVersionGCPinning(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	commit := func(id int64) {
		if err := tb.Insert(tRow(id, 0)); err != nil {
			t.Fatal(err)
		}
		db.Commit()
	}
	commit(1)
	snap := db.Snapshot() // pins epoch 1
	commit(2)
	commit(3)
	commit(4)

	now := time.Now()
	if reclaimed, leaked := db.RunVersionGC(now, time.Hour); leaked != 0 {
		t.Fatalf("leak guard fired early: %d", leaked)
	} else if reclaimed != 1 {
		// Epoch 0 (pre-snapshot) has no readers and is reclaimable; epochs
		// 1..3 are blocked by the pin on 1.
		t.Fatalf("reclaimed %d versions, want 1 (epoch 0 only)", reclaimed)
	}
	st := db.MVCCStats()
	if st.RetainedVersions != 3 || st.ActiveReaders != 1 {
		t.Fatalf("stats while pinned: %+v", st)
	}

	// The pinned snapshot still answers from its epoch.
	if got := snap.TableData("t").NumRows(); got != 1 {
		t.Fatalf("pinned snapshot rows = %d", got)
	}

	snap.Release()
	if reclaimed, _ := db.RunVersionGC(now, time.Hour); reclaimed != 3 {
		t.Fatalf("reclaimed %d after release, want 3", reclaimed)
	}
	if st := db.MVCCStats(); st.RetainedVersions != 0 || st.VersionsReclaimed != 4 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestVersionGCLeakGuard: a reader that never releases past the deadline is
// logged, counted, and dropped from accounting — but its own reference keeps
// the data alive and readable.
func TestVersionGCLeakGuard(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	if err := tb.Insert(tRow(1, 0)); err != nil {
		t.Fatal(err)
	}
	db.Commit()
	leakedSnap := db.Snapshot() // never released
	if err := tb.Insert(tRow(2, 0)); err != nil {
		t.Fatal(err)
	}
	db.Commit()

	// Within the deadline: blocked, not leaked.
	if _, leaked := db.RunVersionGC(time.Now(), time.Hour); leaked != 0 {
		t.Fatalf("leaked %d within deadline", leaked)
	}
	// Past the deadline (fake clock): force-released.
	if _, leaked := db.RunVersionGC(time.Now().Add(2*time.Hour), time.Hour); leaked != 1 {
		t.Fatalf("leaked = %d, want 1", leaked)
	}
	if st := db.MVCCStats(); st.SnapshotsLeaked != 1 || st.RetainedVersions != 0 {
		t.Fatalf("stats after leak: %+v", st)
	}
	// The leaked handle still reads its epoch.
	if got := leakedSnap.TableData("t").NumRows(); got != 1 {
		t.Fatalf("leaked snapshot rows = %d", got)
	}
}

// TestSnapshotDoubleRelease: Release is idempotent and never double-counts.
func TestSnapshotDoubleRelease(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	snap := db.Snapshot()
	snap.Release()
	snap.Release()
	if st := db.MVCCStats(); st.ActiveReaders != 0 {
		t.Fatalf("active readers after double release = %d", st.ActiveReaders)
	}
}

// TestSnapshotAcquireConcurrent races acquisition against commits; run under
// -race this checks the lock-free pin protocol.
func TestSnapshotAcquireConcurrent(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	tb := db.Table("t")
	if err := tb.Insert(tRow(0, 0)); err != nil {
		t.Fatal(err)
	}
	db.Commit()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := tb.Insert(tRow(i, 0)); err != nil {
				return
			}
			db.Commit()
			db.RunVersionGC(time.Now(), time.Hour)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				snap := db.Snapshot()
				td := snap.TableData("t")
				n := td.NumRows()
				// Rows 0..n-1 are stable within the snapshot.
				if td.RowAt(n - 1)[0].Int() != int64(n-1) {
					t.Error("snapshot tore")
					snap.Release()
					return
				}
				snap.Release()
			}
		}()
	}
	// Readers finish first; then stop the writer.
	go func() {
		wg.Wait()
	}()
	time.Sleep(50 * time.Millisecond)
	close(done)
	wg.Wait()
}

// BenchmarkSnapshotAcquire measures the pin/unpin pair; it must stay O(1)
// and allocation-light since every /query pays it.
func BenchmarkSnapshotAcquire(b *testing.B) {
	db := NewDatabase(testCatalog(b))
	db.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Snapshot().Release()
	}
}
