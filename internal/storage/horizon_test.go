package storage

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"matview/internal/sqlvalue"
)

// groupsView stores view v of n groups (g, 1, g as a DOUBLE), unique on g,
// and publishes it.
func groupsView(t *testing.T, n int) (*Database, *MaterializedView) {
	t.Helper()
	db := NewDatabase(testCatalog(t))
	rows := make([]Row, n)
	for g := range rows {
		rows[g] = Row{sqlvalue.NewInt(int64(g)), sqlvalue.NewInt(1), sqlvalue.NewFloat(float64(g))}
	}
	mv, err := db.PutView("v", StoreOf(3, rows))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mv.BuildIndex([]int{0}, true); err != nil {
		t.Fatal(err)
	}
	db.Commit()
	return db, mv
}

// bump updates group g in place, as aggregate maintenance does.
func bump(t *testing.T, mv *MaterializedView, g int) {
	t.Helper()
	st := mv.Store()
	mv.SetInt(g, 1, st.Int(g, 1)+1)
	mv.SetFloat(g, 2, st.Float(g, 2)+0.5)
	if err := mv.PatchIndexes(); err != nil {
		t.Fatal(err)
	}
}

func sameRows(a, b []Row) bool {
	return slices.EqualFunc(a, b, func(x, y Row) bool { return slices.Equal(x, y) })
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestHorizonKeepsPinnedSnapshot: while a snapshot pins a superseded epoch,
// the blocks the head retires past it are not reused, so 50 statements that
// update groups in place, in every block, leave the snapshot's values as
// they were; once it is released, the next publish moves the horizon past
// them and a write copies into a retired block instead of allocating one.
func TestHorizonKeepsPinnedSnapshot(t *testing.T) {
	const groups = 3*BlockRows + 5
	db, mv := groupsView(t, groups)
	snap := db.Snapshot()
	defer snap.Release()
	want := snap.ViewData("v").Rows()
	rng := rand.New(rand.NewSource(5))
	for range 50 {
		bump(t, mv, rng.Intn(groups))
		db.Commit()
	}
	if !sameRows(snap.ViewData("v").Rows(), want) {
		t.Fatal("a snapshot pinned on a superseded epoch changed under in-place writes")
	}
	snap.Release()
	bump(t, mv, 0)
	db.Commit() // the first publish since the release
	if got := allocated(func() { bump(t, mv, BlockRows) }); got >= BlockRows*8 {
		t.Fatalf("a write after the snapshot was released allocated %d bytes, want less than a payload array", got)
	}
}

// TestHorizonHoldsLeakedSnapshot: a snapshot the leak guard force-released
// (TestVersionGCLeakGuard's setup) keeps the horizon until its reader
// releases it, so it reads its epoch's values after the writer has gone on
// for 50 statements.
func TestHorizonHoldsLeakedSnapshot(t *testing.T) {
	const groups = 2*BlockRows + 5
	db, mv := groupsView(t, groups)
	leaked := db.Snapshot() // never released by the test's reader
	defer leaked.Release()
	want := leaked.ViewData("v").Rows()
	bump(t, mv, 0)
	db.Commit()
	if _, n := db.RunVersionGC(time.Now().Add(2*time.Hour), time.Hour); n != 1 {
		t.Fatalf("leak guard released %d versions, want 1", n)
	}
	rng := rand.New(rand.NewSource(7))
	for range 50 {
		bump(t, mv, rng.Intn(groups))
		db.Commit()
	}
	if !sameRows(leaked.ViewData("v").Rows(), want) {
		t.Fatal("a force-released snapshot changed under in-place writes")
	}
}

// TestHorizonFailedCommit: a commit whose hook fails publishes nothing and
// moves no horizon, so statements that go on writing in place after it,
// with no rollback, reuse no block the current epoch reads; the first
// commit that succeeds publishes their sum.
func TestHorizonFailedCommit(t *testing.T) {
	const groups = 2*BlockRows + 5
	db, mv := groupsView(t, groups)
	want := mv.Rows()
	db.SetCommitHook(func(uint64) error { return errors.New("log refused") })
	rng := rand.New(rand.NewSource(9))
	for range 20 {
		bump(t, mv, rng.Intn(groups))
		if _, err := db.CommitDurable(); err == nil {
			t.Fatal("a failing hook published")
		}
	}
	snap := db.Snapshot()
	got := snap.ViewData("v").Rows()
	snap.Release()
	if !sameRows(got, want) {
		t.Fatal("the current epoch changed under writes whose commits failed")
	}
	db.SetCommitHook(nil)
	db.Commit()
	snap = db.Snapshot()
	defer snap.Release()
	if !sameRows(snap.ViewData("v").Rows(), mv.Rows()) {
		t.Fatal("the first commit that succeeded did not publish the head")
	}
}

// TestRollbackDropsRetiredBlocks: statements that update groups in place,
// commit, or roll back at random leave the head and the current epoch equal
// to a model of committed and uncommitted rows. A rollback thaws the head
// from the current epoch, whose blocks the discarded head may have retired,
// so the thawed head starts with no retired block of its own.
func TestRollbackDropsRetiredBlocks(t *testing.T) {
	const groups = 3*BlockRows + 5
	db, mv := groupsView(t, groups)
	committed := mv.Rows()
	head := mv.Rows()
	rng := rand.New(rand.NewSource(11))
	for step := range 300 {
		switch op := rng.Intn(5); {
		case op == 0:
			db.RollbackView("v")
			mv = db.View("v")
			head = slices.Clone(committed)
		case op == 1:
			db.Commit()
			committed = slices.Clone(head)
		default:
			g := rng.Intn(groups)
			bump(t, mv, g)
			r := slices.Clone(head[g])
			r[1], r[2] = sqlvalue.NewInt(r[1].Int()+1), sqlvalue.NewFloat(r[2].Float()+0.5)
			head[g] = r
		}
		snap := db.Snapshot()
		got := snap.ViewData("v").Rows()
		snap.Release()
		if !sameRows(got, committed) || !sameRows(mv.Rows(), head) {
			t.Fatalf("step %d: the current epoch or the head differs from the model", step)
		}
	}
}
