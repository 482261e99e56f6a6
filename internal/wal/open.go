package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"matview/internal/catalog"
	"matview/internal/faults"
	"matview/internal/maintain"
	"matview/internal/shell"
	"matview/internal/sqlparser"
	"matview/internal/storage"
)

// Options configures Open.
type Options struct {
	// NewCatalog returns the schema, used to rebuild a database around
	// checkpointed rows. It must describe the same schema the checkpoint was
	// taken under.
	NewCatalog func() *catalog.Catalog
	// Bootstrap builds and commits the initial database when the directory
	// has no checkpoint (first boot, or every epoch since genesis is still in
	// the log). It must be deterministic: recovery relies on re-running it to
	// reproduce the exact state the logged statements executed against.
	Bootstrap func() (*storage.Database, error)
	// Injector, when non-nil, arms the WAL fault sites (wal.append,
	// wal.fsync, wal.checkpoint.*) for live operation. Recovery itself never
	// injects: the checkpoint written at the end of a non-trivial recovery
	// bypasses the injector, so a chaos rule cannot wedge startup.
	Injector *faults.Injector
}

// OpenResult is a recovered, durably-logging engine stack.
type OpenResult struct {
	DB       *storage.Database
	Session  *shell.Session
	Manager  *Manager
	Recovery RecoveryStats
}

// Open recovers the database in dir and wires durability into it:
//
//  1. Load the newest CRC-valid checkpoint, if any, and rebuild base tables,
//     views (through shell.Session.RestoreView, with their persisted health),
//     and indexes from it. With no checkpoint, run opts.Bootstrap.
//  2. Scan the log, truncating a torn final record, and replay every record
//     with an epoch past the recovery base through shell.Session.Execute —
//     the same code path live statements take — then check that the view
//     registries agree (shell.Session.CheckViews).
//  3. If anything was replayed (or this is first boot), write a fresh
//     checkpoint so the next restart starts from here.
//  4. Install the commit hook and stager so subsequent statements are logged
//     durably before their epochs publish.
//
// Only after Open returns should the caller serve traffic.
func Open(dir string, opts Options) (*OpenResult, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating data dir: %w", err)
	}
	ck, err := loadNewestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	log, recs, torn, err := openLog(dir, opts.Injector)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*OpenResult, error) {
		_ = log.Close()
		return nil, err
	}

	var db *storage.Database
	var baseEpoch uint64
	if ck != nil {
		if db, err = rebuildTables(ck, opts.NewCatalog()); err != nil {
			return fail(err)
		}
		baseEpoch = ck.epoch
	} else {
		if db, err = opts.Bootstrap(); err != nil {
			return fail(fmt.Errorf("wal: bootstrap: %w", err))
		}
		baseEpoch = db.Epoch()
	}
	sess := shell.NewSession(db)
	if ck != nil {
		if err := rebuildViews(ck, db, sess); err != nil {
			return fail(err)
		}
		// Pin the epoch counter to the checkpoint's: replayed records then
		// re-publish the exact epochs they originally committed.
		db.Commit()
		db.ForceEpoch(ck.epoch)
	}

	replayed := 0
	for _, rec := range recs {
		if rec.Epoch <= baseEpoch {
			continue // already inside the checkpoint
		}
		if err := sess.Execute(rec.SQL, io.Discard); err != nil {
			// A MaintenanceError whose base write applied is the transactional
			// view-maintenance contract working as designed (the offending
			// view is stale/quarantined, exactly as it was after the original
			// run); anything else means the log does not replay against this
			// state — corruption, not a maintenance outcome.
			var me *maintain.MaintenanceError
			if !errors.As(err, &me) || me.Base != nil {
				return fail(fmt.Errorf("wal: replaying %q at epoch %d: %w", rec.SQL, rec.Epoch, err))
			}
		}
		db.ForceEpoch(rec.Epoch)
		replayed++
	}
	db.RefreshStats()
	if err := sess.CheckViews(); err != nil {
		return fail(fmt.Errorf("wal: recovered views disagree: %w", err))
	}

	mgr := &Manager{dir: dir, log: log, stop: make(chan struct{})}
	if ck != nil {
		mgr.ckptEpoch.Store(ck.epoch)
	}
	mgr.recovery = RecoveryStats{
		CheckpointEpoch:    baseEpoch,
		ReplayedRecords:    replayed,
		TornRecordsDropped: torn,
		FinalEpoch:         db.Epoch(),
	}
	if ck == nil || replayed > 0 || torn > 0 {
		// First boot or non-trivial recovery: checkpoint the recovered state
		// so the next restart replays nothing. mgr.inj is still nil here —
		// this write ignores injected faults by construction.
		if err := mgr.Checkpoint(GatherSpec(db, sess)); err != nil {
			return fail(fmt.Errorf("wal: post-recovery checkpoint: %w", err))
		}
	}
	mgr.inj = opts.Injector
	mgr.recovery.DurationSeconds = time.Since(start).Seconds()

	db.SetCommitHook(mgr.commitHook)
	sess.Dur = mgr
	return &OpenResult{DB: db, Session: sess, Manager: mgr, Recovery: mgr.recovery}, nil
}

// GatherSpec pins a snapshot of db and collects the view metadata a
// checkpoint needs from the maintainer, the registry of record. A view with
// no committed rows — defined but never installed, such as an autopilot
// build that failed and was quarantined — is not checkpointed: its creation
// never committed, so a restart drops it, exactly as replaying the log would.
// The caller's locking must exclude in-flight commits while this runs (the
// server pins under its read lock; single-threaded callers need nothing).
func GatherSpec(db *storage.Database, sess *shell.Session) CheckpointSpec {
	spec := CheckpointSpec{Snap: db.Snapshot()}
	for _, v := range sess.Maint.Views() {
		st, _ := sess.Maint.ViewState(v.Name)
		spec.Views = append(spec.Views, ViewMeta{Name: v.Name, DefSQL: v.Def.String(), Health: int(st)})
	}
	return spec
}

// rebuildTables reconstructs base tables from a checkpoint over a fresh
// database built from the code-defined schema.
func rebuildTables(ck *checkpointData, cat *catalog.Catalog) (*storage.Database, error) {
	db := storage.NewDatabase(cat)
	for _, ct := range ck.tables {
		t := db.Table(ct.name)
		if t == nil {
			return nil, fmt.Errorf("wal: checkpoint has table %q not in the catalog; schema mismatch", ct.name)
		}
		if err := t.Restore(ct.store); err != nil {
			return nil, fmt.Errorf("wal: restoring table %s: %w", ct.name, err)
		}
		for _, idx := range ct.indexes {
			if _, err := t.BuildIndex(idx.Cols, idx.Unique); err != nil {
				return nil, fmt.Errorf("wal: rebuilding index on %s: %w", ct.name, err)
			}
		}
	}
	db.RefreshStats()
	return db, nil
}

// rebuildViews restores checkpointed views — the checkpointed rows, not a
// recompute, and their persisted health, so a view that crashed Stale comes
// back Stale — through Session.RestoreView.
func rebuildViews(ck *checkpointData, db *storage.Database, sess *shell.Session) error {
	for _, cv := range ck.views {
		def, err := sqlparser.ParseQuery(db.Catalog, cv.defSQL)
		if err != nil {
			return fmt.Errorf("wal: re-parsing view %s definition: %w", cv.name, err)
		}
		if err := sess.RestoreView(cv.name, def, cv.store, cv.indexes, maintain.State(cv.health)); err != nil {
			return fmt.Errorf("wal: restoring view %s: %w", cv.name, err)
		}
	}
	return nil
}
