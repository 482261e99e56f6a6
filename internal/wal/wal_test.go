package wal_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"matview/internal/catalog"
	"matview/internal/faults"
	"matview/internal/maintain"
	"matview/internal/shell"
	"matview/internal/storage"
	"matview/internal/tpch"
	"matview/internal/wal"
)

const (
	testSF   = 0.001
	testSeed = int64(42)
)

func testOptions(inj *faults.Injector) wal.Options {
	return wal.Options{
		NewCatalog: func() *catalog.Catalog { return tpch.NewCatalog(testSF) },
		Bootstrap:  func() (*storage.Database, error) { return tpch.NewDatabase(testSF, testSeed) },
		Injector:   inj,
	}
}

// openDir and mustExec hold the view registries to CheckViews after every
// recovery and every statement.
func openDir(t *testing.T, dir string, inj *faults.Injector) *wal.OpenResult {
	t.Helper()
	res, err := wal.Open(dir, testOptions(inj))
	if err != nil {
		t.Fatal(err)
	}
	checkViews(t, res.Session)
	return res
}

func mustExec(t *testing.T, sess *shell.Session, sql string) {
	t.Helper()
	if err := sess.Execute(sql, io.Discard); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	checkViews(t, sess)
}

func checkViews(t *testing.T, sess *shell.Session) {
	t.Helper()
	if err := sess.CheckViews(); err != nil {
		t.Fatal(err)
	}
}

// dumpState renders the committed epoch plus every table and view row — the
// byte-identical comparison the acceptance criteria call for. Row order is
// deterministic because recovery replays statements through the same
// execution path the reference run uses.
func dumpState(db *storage.Database) string {
	var b strings.Builder
	snap := db.Snapshot()
	defer snap.Release()
	fmt.Fprintf(&b, "epoch %d\n", snap.Epoch())
	writeRows := func(rows []storage.Row) {
		for _, r := range rows {
			for i, v := range r {
				if i > 0 {
					b.WriteByte('|')
				}
				b.WriteString(v.String())
			}
			b.WriteByte('\n')
		}
	}
	for _, name := range snap.Tables() {
		td := snap.TableData(name)
		fmt.Fprintf(&b, "table %s (%d rows, %d indexes)\n", name, td.NumRows(), len(td.IndexDefs()))
		writeRows(td.Rows())
	}
	for _, name := range snap.Views() {
		vd := snap.ViewData(name)
		fmt.Fprintf(&b, "view %s (%d rows, %d indexes)\n", name, vd.NumRows(), len(vd.IndexDefs()))
		writeRows(vd.Rows())
	}
	return b.String()
}

// referenceState bootstraps a pristine database and executes stmts through a
// fresh session — the ground truth a recovered directory must match exactly.
func referenceState(t *testing.T, stmts []string) string {
	t.Helper()
	db, err := tpch.NewDatabase(testSF, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	sess := shell.NewSession(db)
	for _, s := range stmts {
		mustExec(t, sess, s)
	}
	return dumpState(db)
}

// kmStmts is the committed-statement history the kill matrix replays: view
// DDL, an index, inserts, a delete, a drop — every loggable statement kind.
// km_pairs reads orders twice, so every write replays its per-instance delta
// terms.
var kmStmts = []string{
	`create view km_oc with schemabinding as select o_custkey, count_big(*) as cnt, sum(o_totalprice) as total from orders group by o_custkey`,
	`create view km_pairs with schemabinding as select a.o_custkey, count_big(*) as cnt, sum(b.o_totalprice) as total from orders a, orders b where a.o_custkey = b.o_custkey and b.o_totalprice >= 100 group by a.o_custkey`,
	`insert into orders values (900001, 1, 'O', 111.50, '1996-01-02', '1-URGENT', 'Clerk#1', 0, 'first')`,
	`create index km_idx on km_oc (o_custkey)`,
	`insert into orders values (900002, 7, 'F', 220.25, '1997-03-04', '2-HIGH', 'Clerk#2', 0, 'second')`,
	`delete from orders where o_custkey = 42`,
	`drop view km_oc`,
	`create view km_oc2 with schemabinding as select o_custkey, count_big(*) as cnt from orders group by o_custkey`,
}

func walFiles(t *testing.T, dir, pattern string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// TestGenesisOpen: first boot of an empty directory bootstraps, replays
// nothing, and leaves a genesis checkpoint so the data generator never runs
// again.
func TestGenesisOpen(t *testing.T) {
	dir := t.TempDir()
	res := openDir(t, dir, nil)
	defer res.Manager.Close()
	if res.Recovery.ReplayedRecords != 0 || res.Recovery.TornRecordsDropped != 0 {
		t.Fatalf("genesis recovery = %+v, want nothing replayed", res.Recovery)
	}
	if n := len(walFiles(t, dir, "checkpoint-*.ckpt")); n != 1 {
		t.Fatalf("genesis left %d checkpoints, want 1", n)
	}
	if res.DB.Epoch() == 0 {
		t.Fatal("bootstrapped database has no committed epoch")
	}
}

// TestCleanShutdownZeroReplay: checkpoint-then-close makes the next open
// replay zero records and reproduce the exact state.
func TestCleanShutdownZeroReplay(t *testing.T) {
	dir := t.TempDir()
	res := openDir(t, dir, nil)
	for _, s := range kmStmts[:5] {
		mustExec(t, res.Session, s)
	}
	want := dumpState(res.DB)
	if err := res.Manager.Checkpoint(wal.GatherSpec(res.DB, res.Session)); err != nil {
		t.Fatal(err)
	}
	if err := res.Manager.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDir(t, dir, nil)
	defer re.Manager.Close()
	if re.Recovery.ReplayedRecords != 0 {
		t.Fatalf("clean restart replayed %d records, want 0", re.Recovery.ReplayedRecords)
	}
	if got := dumpState(re.DB); got != want {
		t.Fatalf("recovered state differs from pre-shutdown state:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	// The recovered stack stays writable and durable.
	mustExec(t, re.Session, kmStmts[5])
}

// TestKillMatrix is the crash-recovery acceptance test: for every prefix of
// the statement history, crash without a checkpoint (the WAL tail carries
// everything) and verify the recovered state is byte-identical to a
// reference replay of exactly the committed statements. Closing the file
// handle without checkpointing models a kill: every acknowledged statement
// was already fsync'd, and no shutdown-path flushing exists to run.
func TestKillMatrix(t *testing.T) {
	for k := 0; k <= len(kmStmts); k++ {
		t.Run(fmt.Sprintf("crash_after_%d", k), func(t *testing.T) {
			dir := t.TempDir()
			res := openDir(t, dir, nil)
			for _, s := range kmStmts[:k] {
				mustExec(t, res.Session, s)
			}
			res.Manager.Close() // simulated kill: no checkpoint, no flush

			re := openDir(t, dir, nil)
			defer re.Manager.Close()
			if re.Recovery.ReplayedRecords != k {
				t.Fatalf("replayed %d records, want %d", re.Recovery.ReplayedRecords, k)
			}
			want := referenceState(t, kmStmts[:k])
			if got := dumpState(re.DB); got != want {
				t.Fatalf("recovered state after %d statements differs from reference replay", k)
			}
		})
	}
}

// TestRecoveryCheckpointMakesSecondRestartClean: a recovery that replayed
// records checkpoints itself, so crashing again immediately replays nothing.
func TestRecoveryCheckpointMakesSecondRestartClean(t *testing.T) {
	dir := t.TempDir()
	res := openDir(t, dir, nil)
	for _, s := range kmStmts {
		mustExec(t, res.Session, s)
	}
	res.Manager.Close()

	re1 := openDir(t, dir, nil)
	if re1.Recovery.ReplayedRecords != len(kmStmts) {
		t.Fatalf("first recovery replayed %d, want %d", re1.Recovery.ReplayedRecords, len(kmStmts))
	}
	want := dumpState(re1.DB)
	re1.Manager.Close()

	re2 := openDir(t, dir, nil)
	defer re2.Manager.Close()
	if re2.Recovery.ReplayedRecords != 0 {
		t.Fatalf("second recovery replayed %d, want 0", re2.Recovery.ReplayedRecords)
	}
	if dumpState(re2.DB) != want {
		t.Fatal("second recovery diverged from first")
	}
}

// TestTornTailDiscarded: garbage after the last record — a crash mid-append —
// is detected by CRC, dropped, and never applied.
func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	res := openDir(t, dir, nil)
	for _, s := range kmStmts[:4] {
		mustExec(t, res.Session, s)
	}
	res.Manager.Close()

	segs := walFiles(t, dir, "wal-*.log")
	if len(segs) == 0 {
		t.Fatal("no log segments")
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A torn frame: plausible header claiming more payload than exists.
	if _, err := f.Write([]byte{200, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openDir(t, dir, nil)
	defer re.Manager.Close()
	if re.Recovery.TornRecordsDropped != 1 {
		t.Fatalf("torn dropped = %d, want 1", re.Recovery.TornRecordsDropped)
	}
	if re.Recovery.ReplayedRecords != 4 {
		t.Fatalf("replayed %d records, want 4", re.Recovery.ReplayedRecords)
	}
	if got, want := dumpState(re.DB), referenceState(t, kmStmts[:4]); got != want {
		t.Fatal("state after torn-tail recovery differs from reference")
	}
}

// TestFsyncFailurePoisonsLog: a failed fsync refuses the commit, and every
// later commit — even one with nothing staged — is refused too, until a
// restart recovers from the intact prefix.
func TestFsyncFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(11)
	res := openDir(t, dir, inj)
	mustExec(t, res.Session, kmStmts[0])
	mustExec(t, res.Session, kmStmts[1])

	inj.Add(faults.Rule{Site: faults.SiteWALSync, Rate: 1, Limit: 1})
	if err := res.Session.Execute(kmStmts[2], io.Discard); err == nil {
		t.Fatal("statement with failed fsync reported success")
	}
	if res.Manager.Failed() == nil {
		t.Fatal("log not poisoned after fsync failure")
	}
	// The injected rule is spent (Limit 1); the refusal below is the sticky
	// poison, not another injection.
	if err := res.Session.Execute(kmStmts[4], io.Discard); err == nil {
		t.Fatal("poisoned log accepted a later statement")
	}
	if stats := res.Manager.StatsSnapshot(); stats.Failed == "" {
		t.Fatal("stats do not report the sticky failure")
	}
	res.Manager.Close()

	// The refused statement's frame was fully appended before the fsync
	// failed, so its durability is unknown — exactly a crash between fsync
	// and acknowledgment. The live process rolled it back and refused to
	// acknowledge; recovery finds the intact frame and applies it. Both are
	// serializable outcomes for an errored statement. The later statement
	// (refused by the sticky poison before any bytes were written) must NOT
	// reappear.
	re := openDir(t, dir, nil)
	defer re.Manager.Close()
	if re.Recovery.ReplayedRecords != 3 {
		t.Fatalf("replayed %d records, want 3", re.Recovery.ReplayedRecords)
	}
	if got, want := dumpState(re.DB), referenceState(t, kmStmts[:3]); got != want {
		t.Fatal("recovery after poisoned log diverged from the durable statement history")
	}
}

// TestAppendShortWrite: a fault during append leaves a genuine torn prefix
// in the file; the statement is refused, and recovery discards the torn
// record instead of applying half of it.
func TestAppendShortWrite(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(12)
	res := openDir(t, dir, inj)
	for _, s := range kmStmts[:3] {
		mustExec(t, res.Session, s)
	}

	inj.Add(faults.Rule{Site: faults.SiteWALAppend, Rate: 1, Limit: 1})
	if err := res.Session.Execute(kmStmts[4], io.Discard); err == nil {
		t.Fatal("statement with torn append reported success")
	}
	res.Manager.Close()

	re := openDir(t, dir, nil)
	defer re.Manager.Close()
	if re.Recovery.TornRecordsDropped != 1 {
		t.Fatalf("torn dropped = %d, want 1", re.Recovery.TornRecordsDropped)
	}
	if got, want := dumpState(re.DB), referenceState(t, kmStmts[:3]); got != want {
		t.Fatal("state after short-write recovery differs from reference")
	}
}

// TestCheckpointWriteFault: a fault while serializing the checkpoint leaves
// only an ignored temp file; the previous checkpoint stays authoritative,
// nothing is poisoned, and the next attempt succeeds.
func TestCheckpointWriteFault(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(13)
	res := openDir(t, dir, inj)
	for _, s := range kmStmts[:3] {
		mustExec(t, res.Session, s)
	}

	inj.Add(faults.Rule{Site: faults.SiteWALCheckpointWrite, Rate: 1, Limit: 1})
	if err := res.Manager.Checkpoint(wal.GatherSpec(res.DB, res.Session)); err == nil {
		t.Fatal("faulted checkpoint write reported success")
	}
	if n := len(walFiles(t, dir, "checkpoint-*.ckpt")); n != 1 {
		t.Fatalf("failed checkpoint changed the published set: %d files, want the genesis 1", n)
	}
	// Checkpoint faults never poison the log: commits continue.
	mustExec(t, res.Session, kmStmts[4])
	// And the retry (injector spent) succeeds.
	if err := res.Manager.Checkpoint(wal.GatherSpec(res.DB, res.Session)); err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	res.Manager.Close()

	re := openDir(t, dir, nil)
	defer re.Manager.Close()
	if re.Recovery.ReplayedRecords != 0 {
		t.Fatalf("replayed %d after successful checkpoint, want 0", re.Recovery.ReplayedRecords)
	}
	want := referenceState(t, []string{kmStmts[0], kmStmts[1], kmStmts[2], kmStmts[4]})
	if got := dumpState(re.DB); got != want {
		t.Fatal("state after checkpoint-write fault differs from reference")
	}
}

// TestCheckpointRenameFault: crash in the window between the fsync'd temp
// file and its rename — the temp file is left behind and ignored; recovery
// replays from the previous checkpoint.
func TestCheckpointRenameFault(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(14)
	res := openDir(t, dir, inj)
	mustExec(t, res.Session, kmStmts[0])

	inj.Add(faults.Rule{Site: faults.SiteWALCheckpointRename, Rate: 1, Limit: 1})
	if err := res.Manager.Checkpoint(wal.GatherSpec(res.DB, res.Session)); err == nil {
		t.Fatal("faulted checkpoint rename reported success")
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.tmp")); err != nil {
		t.Fatalf("rename fault should leave the temp file: %v", err)
	}
	res.Manager.Close() // crash here

	re := openDir(t, dir, nil)
	defer re.Manager.Close()
	if re.Recovery.ReplayedRecords != 1 {
		t.Fatalf("replayed %d records, want 1 (from the pre-checkpoint log)", re.Recovery.ReplayedRecords)
	}
	if got, want := dumpState(re.DB), referenceState(t, kmStmts[:1]); got != want {
		t.Fatal("state after rename fault differs from reference")
	}
}

// TestViewHealthSurvivesRestart: a view that degraded before the crash must
// come back degraded — checkpoints persist lifecycle health, and recovery
// restores it instead of silently trusting stale contents.
func TestViewHealthSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	res := openDir(t, dir, nil)
	mustExec(t, res.Session, kmStmts[0])

	inj := faults.New(15)
	inj.Add(faults.Rule{Site: faults.SiteMaintainApply, Rate: 1, Limit: 1})
	res.Session.Maint.SetFaultInjector(inj)
	err := res.Session.Execute(kmStmts[2], io.Discard)
	var me *maintain.MaintenanceError
	if err == nil {
		t.Fatal("faulted maintenance reported success")
	} else if !errors.As(err, &me) || me.Base != nil {
		t.Fatalf("unexpected error shape: %v", err)
	}
	st, ok := res.Session.Maint.ViewState("km_oc")
	if !ok || st == maintain.Fresh {
		t.Fatalf("view state after faulted maintenance = %v, want degraded", st)
	}
	if err := res.Manager.Checkpoint(wal.GatherSpec(res.DB, res.Session)); err != nil {
		t.Fatal(err)
	}
	res.Manager.Close()

	re := openDir(t, dir, nil)
	defer re.Manager.Close()
	if re.Recovery.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records, want 0", re.Recovery.ReplayedRecords)
	}
	st2, ok := re.Session.Maint.ViewState("km_oc")
	if !ok || st2 != st {
		t.Fatalf("recovered view state = %v, want %v", st2, st)
	}
	// Repair still works on the recovered stack: the statement history is on
	// disk and the view heals from base tables.
	if rep := re.Session.Maint.Repair(); len(rep.Repaired) == 0 {
		t.Fatalf("repair on recovered stack fixed nothing: %+v", rep)
	}
	if st3, _ := re.Session.Maint.ViewState("km_oc"); st3 != maintain.Fresh {
		t.Fatalf("view state after repair = %v, want Fresh", st3)
	}
}

// TestRestartDropsUnbuiltView: a view defined but never installed (a failed
// background build, quarantined) has no committed creation, so neither a
// checkpoint nor the log carries it, and recovery — from either — comes back
// without it in any registry, while a built view is kept.
func TestRestartDropsUnbuiltView(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			dir := t.TempDir()
			res := openDir(t, dir, nil)
			mustExec(t, res.Session, kmStmts[0])
			def := res.Session.Maint.Views()[0].Def
			if _, err := res.Session.DefineView("km_wreck", def); err != nil {
				t.Fatal(err)
			}
			res.Session.Maint.SetState("km_wreck", maintain.Quarantined, errors.New("build failed"))
			checkViews(t, res.Session)
			if checkpoint {
				if err := res.Manager.Checkpoint(wal.GatherSpec(res.DB, res.Session)); err != nil {
					t.Fatal(err)
				}
			}
			res.Manager.Close()

			re := openDir(t, dir, nil)
			defer re.Manager.Close()
			if _, ok := re.Session.Maint.ViewState("km_wreck"); ok {
				t.Fatal("never-built view survived recovery")
			}
			if st, ok := re.Session.Maint.ViewState("km_oc"); !ok || st != maintain.Fresh {
				t.Fatalf("built view after recovery: state %v, present %v", st, ok)
			}
		})
	}
}

// TestCheckpointPruning: only the newest two checkpoints are kept.
func TestCheckpointPruning(t *testing.T) {
	dir := t.TempDir()
	res := openDir(t, dir, nil)
	defer res.Manager.Close()
	for i, s := range kmStmts[:4] {
		mustExec(t, res.Session, s)
		if err := res.Manager.Checkpoint(wal.GatherSpec(res.DB, res.Session)); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	if n := len(walFiles(t, dir, "checkpoint-*.ckpt")); n != 2 {
		t.Fatalf("%d checkpoints on disk, want 2", n)
	}
}

// TestSegmentTruncation: a checkpoint deletes the sealed segments the
// previous checkpoint covers, bounding disk growth, and keeps the records
// past it, which a fallback to that checkpoint replays.
func TestSegmentTruncation(t *testing.T) {
	dir := t.TempDir()
	res := openDir(t, dir, nil)
	defer res.Manager.Close()
	checkpoint := func() {
		t.Helper()
		if err := res.Manager.Checkpoint(wal.GatherSpec(res.DB, res.Session)); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range kmStmts[:4] {
		mustExec(t, res.Session, s)
	}
	checkpoint()
	first := walFiles(t, dir, "wal-*.log")
	if len(first) != 2 {
		t.Fatalf("%d segments after the first checkpoint, want 2 (the records past genesis, a fresh active)", len(first))
	}
	mustExec(t, res.Session, kmStmts[4])
	checkpoint()
	if _, err := os.Stat(first[0]); !os.IsNotExist(err) {
		t.Fatalf("segment %s, covered by the first checkpoint, survived the second: %v", first[0], err)
	}
	segs := walFiles(t, dir, "wal-*.log")
	if len(segs) != 2 || segs[0] != first[1] {
		t.Fatalf("segments after the second checkpoint %v, want %s (the record past the first) and a fresh active", segs, first[1])
	}
	info, err := os.Stat(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Fatalf("active segment has %d bytes after checkpoint, want 0", info.Size())
	}
}

// corrupt rewrites a file through edit.
func corrupt(t *testing.T, path string, edit func([]byte)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edit(data)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func flipMiddleByte(data []byte) { data[len(data)/2] ^= 0xff }

// TestCorruptNewestCheckpointFallsBack: when the newest checkpoint fails its
// CRC, recovery falls back to the older one and replays every record past
// it, which the log still holds: no acknowledged write is lost. The
// checkpoint written after that recovery deletes the corrupt file, and a
// second restart starts from the new checkpoint with the same state.
func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	res := openDir(t, dir, nil)
	checkpoint := func() {
		t.Helper()
		if err := res.Manager.Checkpoint(wal.GatherSpec(res.DB, res.Session)); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, res.Session, kmStmts[0])
	mustExec(t, res.Session, kmStmts[2])
	checkpoint()
	mustExec(t, res.Session, kmStmts[4])
	checkpoint()
	mustExec(t, res.Session, `insert into orders values (900003, 11, 'O', 333.75, '1998-05-06', '3-MEDIUM', 'Clerk#3', 0, 'third')`)
	want := dumpState(res.DB)
	res.Manager.Close()

	files := walFiles(t, dir, "checkpoint-*.ckpt")
	if len(files) != 2 {
		t.Fatalf("%d checkpoints on disk, want 2", len(files))
	}
	corrupt(t, files[1], flipMiddleByte)
	re := openDir(t, dir, nil)
	if re.Recovery.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records past the older checkpoint, want 2", re.Recovery.ReplayedRecords)
	}
	if got := dumpState(re.DB); got != want {
		t.Fatal("state recovered through the older checkpoint differs from the state before the crash")
	}
	re.Manager.Close()
	if got := walFiles(t, dir, "checkpoint-*.ckpt"); slices.Contains(got, files[1]) || len(got) != 2 {
		t.Fatalf("checkpoints after the post-recovery checkpoint: %v; want the older one and the new one, not the corrupt %s", got, files[1])
	}
	again := openDir(t, dir, nil)
	defer again.Manager.Close()
	if again.Recovery.ReplayedRecords != 0 {
		t.Fatalf("second restart replayed %d records, want 0", again.Recovery.ReplayedRecords)
	}
	if got := dumpState(again.DB); got != want {
		t.Fatal("state after a second restart differs from the state before the crash")
	}
}

// TestUnverifiedCheckpointsRefused: checkpoint files none of which verifies
// — bit rot, or a format this build does not read — make Open refuse,
// naming the directory, instead of bootstrapping under them and replaying
// the truncated log onto fresh data.
func TestUnverifiedCheckpointsRefused(t *testing.T) {
	for name, edit := range map[string]func([]byte){
		"flipped byte": flipMiddleByte,
		"old format":   func(data []byte) { copy(data, "MVWCKPT1") },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			res := openDir(t, dir, nil)
			mustExec(t, res.Session, kmStmts[2])
			if err := res.Manager.Checkpoint(wal.GatherSpec(res.DB, res.Session)); err != nil {
				t.Fatal(err)
			}
			res.Manager.Close()
			for _, path := range walFiles(t, dir, "checkpoint-*.ckpt") {
				corrupt(t, path, edit)
			}
			re, err := wal.Open(dir, testOptions(nil))
			if err == nil {
				re.Manager.Close()
				t.Fatal("Open started over checkpoints none of which verifies")
			}
			if !strings.Contains(err.Error(), dir) {
				t.Fatalf("refusal %q does not name the directory %s", err, dir)
			}
		})
	}
}

// TestTypedInsertSurvivesReplay: an INSERT whose literals are written the way
// clients write them — an integer for a DOUBLE column, quoted strings for the
// DATE columns (the benchmark's statement) — stores catalog-typed values:
// every lineitem column keeps its declared kind, every zone map stays
// tracked, and replaying the same text from the log yields the same kinds.
func TestTypedInsertSurvivesReplay(t *testing.T) {
	const ins = `insert into lineitem values (10000001, 1, 1, 1, 7, 1234.25, 0.04, 0.02, 'N', 'O', '1995-03-07', '1995-04-01', '1995-04-10', 'NONE', 'AIR', 'bench marker')`
	dir := t.TempDir()
	res := openDir(t, dir, nil)
	mustExec(t, res.Session, ins)
	check := func(when string, db *storage.Database) []string {
		t.Helper()
		tb := db.Table("lineitem")
		st := tb.Store()
		last := st.RowAt(st.Len() - 1)
		var kinds []string
		for c, col := range tb.Meta.Columns {
			v := st.Col(c)
			if v.Kind != col.Type {
				t.Errorf("%s: lineitem.%s is stored as %s, declared %s", when, col.Name, v.Kind, col.Type)
			}
			for b := 0; b < st.NumBlocks(); b++ {
				if !st.Zone(c, b).Tracked {
					t.Errorf("%s: zone map of lineitem.%s block %d is untracked", when, col.Name, b)
				}
			}
			if last[c].Kind() != col.Type {
				t.Errorf("%s: inserted lineitem.%s is %s, declared %s", when, col.Name, last[c].Kind(), col.Type)
			}
			kinds = append(kinds, last[c].Kind().String())
		}
		return kinds
	}
	live := check("live", res.DB)
	res.Manager.Close() // crash: the INSERT is only in the log

	re := openDir(t, dir, nil)
	defer re.Manager.Close()
	if re.Recovery.ReplayedRecords != 1 {
		t.Fatalf("replayed %d records, want 1", re.Recovery.ReplayedRecords)
	}
	if replayed := check("replayed", re.DB); strings.Join(replayed, ",") != strings.Join(live, ",") {
		t.Fatalf("kinds after replay %v, live %v", replayed, live)
	}
	// What cannot be coerced is refused with the column's name, and stores nothing.
	for _, bad := range []string{
		`insert into lineitem values (10000002, 1, 1, 1, 'seven', 1.0, 0.0, 0.0, 'N', 'O', '1995-03-07', '1995-04-01', '1995-04-10', 'NONE', 'AIR', 'x')`,
		`insert into lineitem values (10000002, 1, 1, 1, 7, 1.0, 0.0, 0.0, 'N', 'O', '1995-3-7', '1995-04-01', '1995-04-10', 'NONE', 'AIR', 'x')`,
		`insert into lineitem values (10000002, 1.5, 1, 1, 7, 1.0, 0.0, 0.0, 'N', 'O', '1995-03-07', '1995-04-01', '1995-04-10', 'NONE', 'AIR', 'x')`,
	} {
		err := re.Session.Execute(bad, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "lineitem.l_") {
			t.Errorf("%.70s…: error %v does not name the column", bad, err)
		}
	}
	if n := re.DB.Table("lineitem").NumRows(); n != res.DB.Table("lineitem").NumRows() {
		t.Fatalf("refused INSERTs left rows behind: %d", n)
	}
}
