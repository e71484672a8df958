package pool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"dra4wfms/internal/wal"
)

// Store attaches crash-consistent persistence to one Table, closing the
// gap between the paper's "documents live in a BigTable-like cloud store"
// scalability story and the in-memory reproduction: a portal or TFC crash
// must not lose stored workflow instances, or the nonrepudiation evidence
// the cascaded signatures carry dies with the process.
//
// The design is the classic log-structured recovery pair:
//
//   - every mutation is appended to a CRC-checksummed log (internal/wal,
//     payload: a JSON walRec) before the table acknowledges it;
//   - Checkpoint writes the table's full live state as a snapshot file
//     (the Export format plus a WAL watermark) and compacts the WAL down
//     to the suffix not yet covered by a retained checkpoint;
//   - Open recovers by loading the newest valid checkpoint and replaying
//     the WAL suffix, preserving cell versions so the recovered table is
//     identical to the pre-crash live state. Damaged checkpoints and torn
//     or bit-flipped WAL tails are quarantined and surfaced in the
//     RecoveryReport, never silently dropped.
var (
	mWALAppends       = tel.Counter("pool_wal_appends_total")
	mWALBytes         = tel.Counter("pool_wal_bytes_total")
	mWALFsyncs        = tel.Counter("pool_wal_fsyncs_total")
	mWALQuarantined   = tel.Counter("pool_wal_quarantined_bytes_total")
	mCheckpoints      = tel.Counter("pool_checkpoints_total")
	mCheckpointErrors = tel.Counter("pool_checkpoint_errors_total")
	mReplayedRecords  = tel.Counter("pool_recovery_replayed_records_total")
)

// ErrStoreClosed is returned for mutations after Close: the final
// checkpoint has been written and accepting more writes would silently
// leave them undurable.
var ErrStoreClosed = errors.New("pool: durable store is closed")

// Store file names inside a data directory.
const (
	walFileName        = "wal.log"
	lockFileName       = "LOCK"
	checkpointExt      = ".ckpt"
	corruptSuffix      = ".corrupt"
	checkpointTmpName  = "checkpoint.tmp"
	defaultCheckpoints = 2
)

// checkpointNameRe matches durable checkpoint files; the zero-padded
// watermark makes lexical order equal numeric order.
var checkpointNameRe = regexp.MustCompile(`^checkpoint-(\d{20})\.ckpt$`)

func checkpointFileName(walSeq uint64) string {
	return fmt.Sprintf("checkpoint-%020d%s", walSeq, checkpointExt)
}

// StoreOptions tune a Store. The zero value is usable: fsync on every
// append, no automatic checkpoints, two retained checkpoints.
type StoreOptions struct {
	// NoFsync skips the per-append fsync. Appends still reach the OS page
	// cache before the mutation is acknowledged, so only a machine (not
	// process) crash can lose acknowledged writes.
	NoFsync bool
	// CheckpointInterval starts a background checkpoint loop when > 0.
	CheckpointInterval time.Duration
	// KeepCheckpoints bounds retained checkpoint files (default 2; the
	// WAL keeps the suffix needed to recover from the oldest retained one,
	// so a corrupt newest checkpoint never costs data).
	KeepCheckpoints int
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = defaultCheckpoints
	}
	return o
}

// RecoveryReport describes what Open found and rebuilt. Surfacing the
// damage is part of the contract: operators must learn about quarantined
// records from the boot log, not from a missing workflow instance.
type RecoveryReport struct {
	// Checkpoint is the base name of the checkpoint loaded ("" if none).
	Checkpoint string
	// CheckpointCells counts cells loaded from that checkpoint.
	CheckpointCells int
	// SkippedCheckpoints lists checkpoint files that failed validation and
	// were renamed aside with a .corrupt suffix.
	SkippedCheckpoints []string
	// ReplayedRecords counts WAL records applied after the checkpoint.
	ReplayedRecords int
	// QuarantinedBytes is the size of the damaged WAL suffix moved to
	// QuarantineFile (0 when the log was clean).
	QuarantinedBytes int64
	// QuarantineFile is the sidecar holding the damaged bytes ("" if none).
	QuarantineFile string
	// DamageReason describes the first damaged WAL frame ("" when clean).
	DamageReason string
}

// Damaged reports whether recovery found anything to quarantine.
func (r *RecoveryReport) Damaged() bool {
	return r.QuarantinedBytes > 0 || len(r.SkippedCheckpoints) > 0
}

// Summary renders the report as one operator-readable line.
func (r *RecoveryReport) Summary() string {
	s := fmt.Sprintf("recovered %d cells from %s, replayed %d WAL records",
		r.CheckpointCells, orNone(r.Checkpoint), r.ReplayedRecords)
	if len(r.SkippedCheckpoints) > 0 {
		s += fmt.Sprintf(", skipped %d corrupt checkpoint(s)", len(r.SkippedCheckpoints))
	}
	if r.QuarantinedBytes > 0 {
		s += fmt.Sprintf(", quarantined %d damaged WAL bytes to %s (%s)",
			r.QuarantinedBytes, r.QuarantineFile, r.DamageReason)
	}
	return s
}

func orNone(s string) string {
	if s == "" {
		return "no checkpoint"
	}
	return s
}

// Store is the durable backing of one Table. Safe for concurrent use.
type Store struct {
	table *Table
	dir   string
	opts  StoreOptions

	// applyMu orders WAL appends relative to checkpoints: mutators hold
	// the read side across journal+apply, Checkpoint takes the write side
	// to pick a watermark no in-flight mutation can precede.
	applyMu sync.RWMutex

	// ckMu serializes whole checkpoint runs (tmp file, pruning, WAL
	// compaction) against each other.
	ckMu sync.Mutex

	// log refuses appends with wal.ErrFailed once it loses its append handle
	// (a compaction that failed after the swap), so no acknowledged write
	// can land on a dead file; the store stays failed until a restart.
	log *wal.Log

	mu     sync.Mutex // guards lsn, closed; orders appends by LSN
	lsn    uint64
	closed bool

	// lockF holds the exclusive advisory lock on the data dir for the
	// store's lifetime, keeping a second process (another daemon, or
	// `dractl snapshot save` against a live dir) from interleaving appends
	// and compactions on the same wal.log.
	lockF *os.File

	closeOnce sync.Once
	closeErr  error

	tickerStop chan struct{}
	tickerDone chan struct{}
}

// Open attaches durable storage in dir to a freshly created table: it
// recovers existing state (newest valid checkpoint plus WAL replay), then
// journals every subsequent mutation before it is acknowledged. The
// returned report describes what was recovered and what had to be
// quarantined. The table must be empty — recovery owns its version clock.
func Open(t *Table, dir string, opts StoreOptions) (*Store, *RecoveryReport, error) {
	_, span := tel.StartSpan(context.Background(), "pool_recovery_seconds")
	defer span.End()
	if len(t.Scan(ScanOptions{Limit: 1})) > 0 {
		return nil, nil, fmt.Errorf("pool: durable store needs a freshly created table, %s already holds data", t.name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("pool: creating data dir: %w", err)
	}
	lockF, err := lockDataDir(dir)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{table: t, dir: dir, opts: opts.withDefaults(), lockF: lockF}
	rep := &RecoveryReport{}

	watermark, err := s.recoverCheckpoint(rep)
	if err != nil {
		return nil, nil, errors.Join(err, unlockDataDir(lockF))
	}
	if err := s.recoverWAL(watermark, rep); err != nil {
		return nil, nil, errors.Join(err, unlockDataDir(lockF))
	}
	if err := t.attachStore(s); err != nil {
		return nil, nil, errors.Join(err, s.log.Close(), unlockDataDir(lockF))
	}
	if s.opts.CheckpointInterval > 0 {
		s.tickerStop = make(chan struct{})
		s.tickerDone = make(chan struct{})
		go s.checkpointLoop()
	}
	return s, rep, nil
}

// recoverCheckpoint loads the newest checkpoint that validates, renaming
// damaged ones aside, and returns its WAL watermark.
func (s *Store) recoverCheckpoint(rep *RecoveryReport) (uint64, error) {
	names, err := s.checkpointFiles()
	if err != nil {
		return 0, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		name := names[i]
		path := filepath.Join(s.dir, name)
		info, err := readSnapshotFile(path)
		if err != nil {
			// Quarantine: keep the bytes for forensics, but make sure the
			// next boot does not trip over the same damage.
			if rerr := os.Rename(path, path+corruptSuffix); rerr != nil {
				return 0, fmt.Errorf("pool: quarantining corrupt checkpoint %s: %w", name, rerr)
			}
			rep.SkippedCheckpoints = append(rep.SkippedCheckpoints, name)
			continue
		}
		for _, kv := range info.Cells {
			s.table.applyReplay(kv.Mutation())
		}
		rep.Checkpoint = name
		rep.CheckpointCells = len(info.Cells)
		return info.WALSeq, nil
	}
	return 0, nil
}

// recoverWAL replays the intact WAL suffix past the checkpoint watermark
// (the log quarantines any damaged tail) and leaves it open for appends.
func (s *Store) recoverWAL(watermark uint64, rep *RecoveryReport) error {
	s.lsn = watermark
	log, rec, err := wal.Open(filepath.Join(s.dir, walFileName), func(payload []byte) error {
		r, err := decodeWALRec(payload)
		if err != nil {
			return err
		}
		if r.LSN > s.lsn {
			s.lsn = r.LSN
		}
		if r.LSN > watermark { // else already contained in the checkpoint
			s.table.applyReplay(r.mutation())
			rep.ReplayedRecords++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("pool: recovering WAL: %w", err)
	}
	mWALQuarantined.Add(rec.DamagedBytes)
	rep.QuarantinedBytes = rec.DamagedBytes
	rep.QuarantineFile = rec.QuarantineFile
	rep.DamageReason = rec.Reason
	mReplayedRecords.Add(int64(rep.ReplayedRecords))
	s.log = log
	return nil
}

// checkpointFiles returns the durable checkpoint base names in ascending
// watermark order.
func (s *Store) checkpointFiles() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("pool: listing data dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && checkpointNameRe.MatchString(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// logMutation journals one mutation and applies it to the table. It is
// the table-mutator entry point: the record is durable (per the fsync
// policy) before the table sees it.
func (s *Store) logMutation(m Mutation) error {
	s.applyMu.RLock()
	defer s.applyMu.RUnlock()
	if err := s.appendRec(m); err != nil {
		return err
	}
	s.table.applyMem(m)
	return nil
}

// appendRec journals m as one frame: one append and, unless NoFsync, one
// fsync however many cells it carries.
func (s *Store) appendRec(m Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	s.lsn++
	payload, err := json.Marshal(newWALRec(s.lsn, m))
	if err != nil {
		return fmt.Errorf("pool: encoding WAL record: %w", err)
	}
	if err := s.log.Append(payload); err != nil {
		return fmt.Errorf("pool: appending to WAL: %w", err)
	}
	mWALAppends.Inc()
	mWALBytes.Add(int64(wal.HeaderBytes + len(payload)))
	if !s.opts.NoFsync {
		if err := s.log.Sync(); err != nil {
			return fmt.Errorf("pool: fsyncing WAL: %w", err)
		}
		mWALFsyncs.Inc()
	}
	return nil
}

// Sync forces the WAL to stable storage — the manual durability barrier
// for stores running with NoFsync.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("pool: fsyncing WAL: %w", err)
	}
	mWALFsyncs.Inc()
	return nil
}

// Checkpoint writes the table's live state as a durable snapshot file and
// compacts the WAL down to the suffix not covered by a retained
// checkpoint. Safe to call concurrently with mutations.
func (s *Store) Checkpoint() error {
	_, span := tel.StartSpan(context.Background(), "pool_checkpoint_seconds")
	defer span.End()
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	// Barrier: wait out in-flight journal+apply pairs so every record with
	// LSN <= watermark is visible to the scan below. Mutations landing
	// after the barrier may also appear in the scan — replay preserves
	// versions, so re-applying them from the WAL is idempotent.
	s.applyMu.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.applyMu.Unlock()
		return ErrStoreClosed
	}
	watermark := s.lsn
	s.mu.Unlock()
	s.applyMu.Unlock()

	kvs := s.table.Scan(ScanOptions{})
	name := checkpointFileName(watermark)
	if err := writeCheckpointFile(s.dir, name, &SnapshotInfo{
		Table: s.table.Name(), WALSeq: watermark, Cells: kvs,
	}); err != nil {
		mCheckpointErrors.Inc()
		return err
	}
	keepFrom, err := s.pruneCheckpoints()
	if err != nil {
		mCheckpointErrors.Inc()
		return err
	}
	if err := s.compactWAL(keepFrom); err != nil {
		mCheckpointErrors.Inc()
		return err
	}
	mCheckpoints.Inc()
	return nil
}

// pruneCheckpoints deletes checkpoints beyond KeepCheckpoints and returns
// the watermark of the oldest retained one — the WAL must keep every
// record past it so any retained checkpoint can still recover.
func (s *Store) pruneCheckpoints() (uint64, error) {
	names, err := s.checkpointFiles()
	if err != nil {
		return 0, err
	}
	for len(names) > s.opts.KeepCheckpoints {
		if err := os.Remove(filepath.Join(s.dir, names[0])); err != nil {
			return 0, fmt.Errorf("pool: pruning checkpoint: %w", err)
		}
		names = names[1:]
	}
	if len(names) == 0 {
		return 0, nil
	}
	m := checkpointNameRe.FindStringSubmatch(names[0])
	wm, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("pool: parsing checkpoint watermark: %w", err)
	}
	return wm, nil
}

// compactWAL rewrites the WAL keeping only records with LSN > watermark.
// Appends are blocked for the duration; the suffix past a fresh
// checkpoint is small, so the pause is bounded.
func (s *Store) compactWAL(watermark uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	path := filepath.Join(s.dir, walFileName)
	err := s.log.Rewrite(func(put func(payload []byte) error) error {
		rec, err := wal.Scan(path, func(payload []byte) error {
			r, err := decodeWALRec(payload)
			if err != nil || r.LSN <= watermark {
				return err
			}
			return put(payload)
		})
		if err == nil && rec.DamagedBytes > 0 {
			// Cannot happen for frames this process wrote; refuse to
			// rewrite a log we cannot fully read and keep the original.
			err = fmt.Errorf("WAL damaged (%s); keeping original", rec.Reason)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("pool: compacting WAL: %w", err)
	}
	return nil
}

// checkpointLoop runs periodic checkpoints until Close.
func (s *Store) checkpointLoop() {
	defer close(s.tickerDone)
	ticker := time.NewTicker(s.opts.CheckpointInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// Errors are counted (pool_checkpoint_errors_total); the next
			// tick retries, and the WAL alone still recovers everything.
			_ = s.Checkpoint() //lint:ignore cryptoerr periodic checkpoint failure is retried next tick and counted in pool_checkpoint_errors_total; durability is preserved by the WAL
		case <-s.tickerStop:
			return
		}
	}
}

// Close stops the checkpoint loop, writes a final checkpoint, and closes
// the WAL. Mutations after Close fail with ErrStoreClosed. Idempotent.
func (s *Store) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.doClose() })
	return s.closeErr
}

func (s *Store) doClose() error {
	if s.tickerStop != nil {
		close(s.tickerStop)
		<-s.tickerDone
	}
	ckErr := s.Checkpoint()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	// On a failed log the sync reports wal.ErrFailed; the snapshot half of
	// the checkpoint above still preserved live state.
	return errors.Join(ckErr, s.log.Sync(), s.log.Close(), unlockDataDir(s.lockF))
}

// Abandon releases the store the way a killed process would: the WAL
// handle and the data-dir lock are dropped with no drain, no final
// checkpoint, and no sync, so the next Open must rebuild purely from the
// on-disk checkpoint + WAL. It exists for crash-recovery drills and
// tests; production shutdown is Close. Further mutations are refused.
// Shares idempotency with Close: whichever runs first wins.
func (s *Store) Abandon() error {
	s.closeOnce.Do(func() {
		if s.tickerStop != nil {
			close(s.tickerStop)
			<-s.tickerDone
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.closed = true
		s.closeErr = errors.Join(s.log.Close(), unlockDataDir(s.lockF))
	})
	return s.closeErr
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// LastLSN returns the most recently assigned WAL sequence number.
func (s *Store) LastLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lsn
}

// readSnapshotFile opens and fully validates one snapshot/checkpoint file.
func readSnapshotFile(path string) (*SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pool: opening checkpoint: %w", err)
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// writeCheckpointFile atomically writes info into dir under name: tmp
// file, fsync, rename, directory fsync — a crash leaves either the old
// state or the complete new checkpoint, never a half-written one.
func writeCheckpointFile(dir, name string, info *SnapshotInfo) error {
	tmpPath := filepath.Join(dir, checkpointTmpName)
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("pool: creating checkpoint: %w", err)
	}
	werr := writeSnapshot(tmp, info.Table, info.WALSeq, info.Cells)
	if werr == nil {
		werr = tmp.Sync()
	}
	if werr != nil {
		cerr := tmp.Close()
		rerr := os.Remove(tmpPath)
		return errors.Join(werr, cerr, rerr)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("pool: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("pool: publishing checkpoint: %w", err)
	}
	return wal.SyncDir(dir)
}

// WriteCheckpointFile publishes info as a durable checkpoint file in dir
// using the store's naming scheme and returns the file's base name. It is
// the offline restore path (`dractl snapshot restore`).
func WriteCheckpointFile(dir string, info *SnapshotInfo) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("pool: creating data dir: %w", err)
	}
	name := checkpointFileName(info.WALSeq)
	if err := writeCheckpointFile(dir, name, info); err != nil {
		return "", err
	}
	return name, nil
}

// lockDataDir takes the exclusive advisory lock guarding a data dir. Two
// writers on one dir append to wal.log at independent offsets and both
// truncate/rename it during quarantine and compaction — guaranteed
// corruption — so a held lock fails fast instead of opening. The lock is
// advisory (flock): it binds every cooperating opener (daemons and dractl
// alike), not arbitrary file access.
func lockDataDir(dir string) (*os.File, error) {
	path := filepath.Join(dir, lockFileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pool: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		cerr := f.Close()
		return nil, errors.Join(
			fmt.Errorf("pool: data dir %s is locked by another process (a running daemon or dractl); refusing to open it concurrently: %w", dir, err),
			cerr)
	}
	return f, nil
}

// unlockDataDir releases the advisory lock; closing the descriptor drops
// the flock.
func unlockDataDir(f *os.File) error {
	if f == nil {
		return nil
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("pool: releasing data dir lock: %w", err)
	}
	return nil
}
