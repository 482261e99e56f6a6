package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"matview/internal/faults"
)

// segment is one log file. The active segment receives appends; sealed
// segments are immutable and deleted once a checkpoint covers every epoch
// they hold. maxEpoch is tracked in memory (and recomputed from a scan on
// open): a record can be appended and fsync'd for an epoch that never
// publishes, so truncation keys off what the file actually contains, never
// off what the database published.
type segment struct {
	path     string
	index    uint64
	maxEpoch uint64
	records  int
}

// walLog is the segmented on-disk log. All mutating methods are serialized by
// mu; a failed append or fsync poisons the log permanently (sticky error) so
// a torn or unsynced suffix can never be extended — it stays at the tail,
// where recovery discards it.
type walLog struct {
	dir string
	inj *faults.Injector

	mu     sync.Mutex
	f      *os.File
	active segment
	sealed []segment
	failed error

	bytes   atomic.Int64
	records atomic.Int64
	fsyncs  atomic.Int64
}

const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

func segPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, index, segSuffix))
}

func segIndex(path string) (uint64, bool) {
	base := filepath.Base(path)
	if !strings.HasPrefix(base, segPrefix) || !strings.HasSuffix(base, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(base[len(segPrefix):len(base)-len(segSuffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// openLog opens (or creates) the log in dir, scanning every segment. It
// returns the log positioned for appending, every valid record in order, and
// how many torn tail records were discarded. A torn record anywhere but the
// final segment's tail is real corruption and fails the open: crashes can
// only tear the record being appended, which is always last.
func openLog(dir string, inj *faults.Injector) (*walLog, []Record, int, error) {
	entries, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return nil, nil, 0, err
	}
	sort.Strings(entries) // zero-padded hex: lexicographic == numeric
	l := &walLog{dir: dir, inj: inj}
	var all []Record
	torn := 0
	for i, path := range entries {
		idx, ok := segIndex(path)
		if !ok {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("wal: reading segment %s: %w", path, err)
		}
		recs, validLen, isTorn := scanFrames(data)
		last := i == len(entries)-1
		if isTorn {
			if !last {
				return nil, nil, 0, fmt.Errorf("wal: segment %s has a torn record before the final segment; log is corrupt", path)
			}
			// Crash mid-append: drop the torn suffix so the reopened segment
			// ends on a record boundary.
			if err := os.Truncate(path, int64(validLen)); err != nil {
				return nil, nil, 0, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
			}
			torn++
		}
		seg := segment{path: path, index: idx, records: len(recs)}
		for _, r := range recs {
			if r.Epoch > seg.maxEpoch {
				seg.maxEpoch = r.Epoch
			}
		}
		all = append(all, recs...)
		if last {
			l.active = seg
		} else {
			l.sealed = append(l.sealed, seg)
		}
	}
	if l.active.path == "" {
		l.active = segment{path: segPath(dir, 1), index: 1}
	}
	f, err := os.OpenFile(l.active.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("wal: opening active segment: %w", err)
	}
	l.f = f
	return l, all, torn, nil
}

// fail poisons the log. Every later Append/Sync fails fast with the original
// error, which guarantees a possibly-torn or unsynced suffix is never
// extended: it stays at the tail, where recovery's CRC scan discards it.
func (l *walLog) fail(err error) {
	if l.failed == nil {
		l.failed = err
	}
}

// Failed returns the sticky error, or nil.
func (l *walLog) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Append writes one framed record to the active segment (no fsync; call Sync
// before acknowledging). An injected SiteWALAppend fault writes a genuine
// torn prefix — half the frame reaches the file — before failing, so chaos
// restarts exercise real torn-tail recovery.
func (l *walLog) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return fmt.Errorf("wal: log previously failed: %w", l.failed)
	}
	frame := appendFrame(nil, rec)
	if err := l.inj.Maybe(faults.SiteWALAppend); err != nil {
		_, _ = l.f.Write(frame[:len(frame)/2])
		l.fail(err)
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.f.Write(frame); err != nil {
		l.fail(err)
		return fmt.Errorf("wal: append: %w", err)
	}
	if rec.Epoch > l.active.maxEpoch {
		l.active.maxEpoch = rec.Epoch
	}
	l.active.records++
	l.bytes.Add(int64(len(frame)))
	l.records.Add(1)
	return nil
}

// Sync fsyncs the active segment.
func (l *walLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return fmt.Errorf("wal: log previously failed: %w", l.failed)
	}
	if err := l.inj.Maybe(faults.SiteWALSync); err != nil {
		l.fail(err)
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.fail(err)
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.fsyncs.Add(1)
	return nil
}

// rotateAndTruncate seals the active segment, starts a fresh one, and deletes
// every sealed segment whose records all have epochs ≤ epoch — the older
// retained checkpoint's, so a fallback to it still finds every record past
// it. Records with epochs ≤ epoch that survive in a kept segment are
// harmless: recovery filters replay by epoch.
func (l *walLog) rotateAndTruncate(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed == nil && l.active.records > 0 {
		next := segment{path: segPath(l.dir, l.active.index+1), index: l.active.index + 1}
		f, err := os.OpenFile(next.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: rotating segment: %w", err)
		}
		_ = l.f.Close()
		l.sealed = append(l.sealed, l.active)
		l.f, l.active = f, next
	}
	kept := l.sealed[:0]
	for _, s := range l.sealed {
		if s.maxEpoch <= epoch {
			_ = os.Remove(s.path)
			continue
		}
		kept = append(kept, s)
	}
	l.sealed = kept
	return nil
}

// segments reports how many log files exist.
func (l *walLog) segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// Close closes the active segment file. The log is unusable afterwards.
func (l *walLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
