package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"matview/internal/faults"
)

// Manager owns one data directory: the segmented log plus its checkpoints.
// It implements shell.Stager (statements are staged before execution) and
// provides the storage commit hook that makes every staged statement durable
// before its epoch publishes.
type Manager struct {
	dir string
	log *walLog
	inj *faults.Injector

	// stageMu guards the staged statement. The engine serializes mutation
	// statements (the server's write lock, the shell's single goroutine), so
	// at most one statement is staged at a time; the lock exists so the
	// commit hook — which may run on a maintenance goroutine — reads a
	// consistent pair.
	stageMu    sync.Mutex
	pending    string
	hasPending bool

	// ckptMu serializes checkpoint writes (the background loop vs. an
	// explicit shutdown checkpoint).
	ckptMu sync.Mutex

	checkpoints  atomic.Int64
	ckptFailures atomic.Int64
	ckptEpoch    atomic.Uint64
	lastCkptNano atomic.Int64

	recovery RecoveryStats

	loopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// RecoveryStats describes what the last Open had to do to reconstruct state.
type RecoveryStats struct {
	// CheckpointEpoch is the epoch of the checkpoint recovery started from
	// (0 when the database was bootstrapped from scratch).
	CheckpointEpoch uint64
	// ReplayedRecords counts log records re-executed on top of the
	// checkpoint. A clean shutdown followed by a restart replays zero.
	ReplayedRecords int
	// TornRecordsDropped counts trailing records discarded by the CRC scan —
	// crashes mid-append. At most one per crash.
	TornRecordsDropped int
	// DurationSeconds is wall time spent in recovery.
	DurationSeconds float64
	// FinalEpoch is the epoch the database resumed at.
	FinalEpoch uint64
}

// Stats is a point-in-time summary of the durability layer for /metrics.
type Stats struct {
	// Bytes and Records count appended frames since this process opened the
	// log; Fsyncs counts successful log fsyncs.
	Bytes   int64
	Records int64
	Fsyncs  int64
	// Segments is the number of live log files on disk.
	Segments int
	// Failed carries the sticky log failure, if any ("" when healthy). While
	// set, every commit is refused and the server is effectively read-only.
	Failed string
	// Checkpoints counts successful checkpoints this process wrote;
	// CheckpointFailures counts attempts that errored (retried next tick).
	Checkpoints        int64
	CheckpointFailures int64
	// CheckpointEpoch is the newest durable checkpoint's epoch and
	// CheckpointAgeSeconds how long ago it was written (-1 before the first
	// one this process observed).
	CheckpointEpoch      uint64
	CheckpointAgeSeconds float64
	// Recovery describes the last startup's recovery work.
	Recovery RecoveryStats
}

// Stage implements shell.Stager.
func (m *Manager) Stage(sql string) {
	m.stageMu.Lock()
	m.pending, m.hasPending = sql, true
	m.stageMu.Unlock()
}

// Unstage implements shell.Stager.
func (m *Manager) Unstage() {
	m.stageMu.Lock()
	m.pending, m.hasPending = "", false
	m.stageMu.Unlock()
}

// commitHook is installed as the storage commit hook: it runs after the next
// version is assembled and before the epoch pointer swap. Returning an error
// aborts publication, so an epoch is visible only if its statement is on
// stable storage.
//
// The poisoned-log check comes before the no-pending early return on
// purpose: once an append or fsync has failed, even unlogged commits (view
// repair, index builds driven by internal goroutines) are refused. A repair
// that published while the log is poisoned would be state the next recovery
// cannot re-derive the durable history for; refusing everything turns the
// process read-only until an operator restarts it, at which point recovery
// rebuilds from the intact prefix.
func (m *Manager) commitHook(epoch uint64) error {
	m.stageMu.Lock()
	sql, has := m.pending, m.hasPending
	m.pending, m.hasPending = "", false
	m.stageMu.Unlock()
	if err := m.log.Failed(); err != nil {
		return fmt.Errorf("wal: refusing commit, log poisoned: %w", err)
	}
	if !has {
		// Commit with no staged statement: view repair, recovery loads, or
		// other internally-derived state. Nothing to log — the state is
		// re-derivable from the statement history already on disk.
		return nil
	}
	if err := m.log.Append(Record{Epoch: epoch, SQL: sql}); err != nil {
		return err
	}
	return m.log.Sync()
}

// Checkpoint serializes spec durably. It then deletes what the previous
// checkpoint covers: every other checkpoint file (older ones, and any
// recovery skipped as corrupt) and the log segments whose records all
// precede it. The log keeps every record past the previous
// checkpoint, so if the new one is found corrupt, recovery falls back to the
// previous one and replays the rest. It takes ownership of spec.Snap and
// releases it. Failures leave the previous checkpoint authoritative and are
// retryable — unlike log failures they never poison anything, because a
// stale checkpoint just means a longer replay.
func (m *Manager) Checkpoint(spec CheckpointSpec) error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	defer spec.Snap.Release()
	epoch := spec.Snap.Epoch()
	if epoch != 0 && epoch == m.ckptEpoch.Load() {
		// Nothing committed since the newest durable checkpoint (which may
		// have been written by a previous process); skip the write.
		return nil
	}
	if err := writeCheckpoint(m.dir, spec, m.inj); err != nil {
		m.ckptFailures.Add(1)
		return err
	}
	prev := m.ckptEpoch.Load()
	pruneCheckpoints(m.dir, prev, epoch)
	if err := m.log.rotateAndTruncate(prev); err != nil {
		return err
	}
	m.checkpoints.Add(1)
	m.ckptEpoch.Store(epoch)
	m.lastCkptNano.Store(time.Now().UnixNano())
	return nil
}

// StartCheckpointLoop checkpoints every interval until Close. gather must
// return a spec with a freshly pinned snapshot; the caller decides what
// locking excludes in-flight commits while pinning.
func (m *Manager) StartCheckpointLoop(interval time.Duration, gather func() CheckpointSpec) {
	if interval <= 0 {
		return
	}
	m.loopOnce.Do(func() {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-m.stop:
					return
				case <-t.C:
					_ = m.Checkpoint(gather())
				}
			}
		}()
	})
}

// Failed returns the sticky log failure, or nil.
func (m *Manager) Failed() error { return m.log.Failed() }

// Recovery returns what the opening recovery pass did.
func (m *Manager) Recovery() RecoveryStats { return m.recovery }

// StatsSnapshot summarizes the durability layer.
func (m *Manager) StatsSnapshot() Stats {
	s := Stats{
		Bytes:                m.log.bytes.Load(),
		Records:              m.log.records.Load(),
		Fsyncs:               m.log.fsyncs.Load(),
		Segments:             m.log.segments(),
		Checkpoints:          m.checkpoints.Load(),
		CheckpointFailures:   m.ckptFailures.Load(),
		CheckpointEpoch:      m.ckptEpoch.Load(),
		CheckpointAgeSeconds: -1,
		Recovery:             m.recovery,
	}
	if err := m.log.Failed(); err != nil {
		s.Failed = err.Error()
	}
	if at := m.lastCkptNano.Load(); at > 0 {
		s.CheckpointAgeSeconds = time.Since(time.Unix(0, at)).Seconds()
	}
	return s
}

// Close stops the checkpoint loop and closes the log. It does not write a
// final checkpoint — callers that want the clean-shutdown fast path (replay
// zero records on restart) call Checkpoint first.
func (m *Manager) Close() error {
	close(m.stop)
	m.wg.Wait()
	return m.log.Close()
}
