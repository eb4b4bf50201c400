// Package persist provides the crash-safe on-disk durability layer
// behind the ecod job history: an append-only, CRC-checked segment
// log with torn-tail-tolerant recovery, batched fsync group commit,
// and background compaction once the garbage ratio passes a
// threshold.
//
// Records are length-prefixed and CRC32C-checked; the recovery scan
// replays every intact record and stops at the first frame that fails
// the checks (a torn tail from a crash mid-append), truncating the
// active segment back to its valid prefix so the log keeps serving.
// A record is therefore either replayed exactly as written or not at
// all — a half-written or bit-flipped record is never replayed.
//
// The log is record-type-agnostic: callers frame their own payloads
// (the daemon's job records are JSON, framed in internal/server).
// Compaction asks the owner for a snapshot of the live state and
// rewrites it into a single fresh segment (written with the
// internal/atomicio temp+rename+dir-fsync discipline), then deletes
// the superseded segments — a crash at any point leaves a replayable
// set, because the snapshot sorts after the segments it replaces and
// job-record replay is idempotent by construction.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// RecordType tags a record family. Unknown types replay as opaque
// payloads and are up to the apply callback to ignore, so old logs
// stay readable across versions.
type RecordType uint8

// The record families the stack persists.
const (
	// RecSolve is retired: it held one entry of the SAT solve cache,
	// which no longer exists. Old data dirs may still
	// hold such records; owners skip them and compaction drops them.
	// The value stays reserved so type 1 is never reused.
	RecSolve RecordType = 1
	// RecJob is one ecod job transition record (JSON payload, framed
	// by internal/server).
	RecJob RecordType = 2
)

// Frame layout: u32 length (body bytes) | u32 CRC32C(body) | body,
// where body = 1 type byte + payload. All integers little-endian.
const (
	headerBytes = 8
	// maxRecordBytes bounds a single record; a length field beyond it
	// is treated as frame corruption, not an allocation request.
	maxRecordBytes = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("persist: log is closed")

// Options tunes a Log. The zero value (plus Dir) is a sane daemon
// configuration.
type Options struct {
	// Dir is the data directory; created if missing. Segments are
	// named seg-<seq>.log and replayed in sequence order.
	Dir string
	// MaxSegmentBytes rotates the active segment once it grows past
	// this size (default 64 MiB).
	MaxSegmentBytes int64
	// CompactRatio triggers background compaction once
	// garbage/records exceeds it (default 0.5). <= 0 takes the
	// default; >= 1 disables ratio-triggered compaction.
	CompactRatio float64
	// CompactMinRecords suppresses compaction below this many on-disk
	// records, so tiny logs are not rewritten over and over
	// (default 1024).
	CompactMinRecords int64
	// FlushInterval is the cadence of the background fsync that covers
	// AppendAsync records (default 100ms).
	FlushInterval time.Duration
	// NoSync skips all fsyncs (benchmarks and tests on tmpfs).
	NoSync bool
	// Log receives operational lines; nil discards them.
	Log *log.Logger
}

func (o *Options) fill() {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 64 << 20
	}
	if o.CompactRatio <= 0 {
		o.CompactRatio = 0.5
	}
	if o.CompactMinRecords <= 0 {
		o.CompactMinRecords = 1024
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 100 * time.Millisecond
	}
	if o.Log == nil {
		o.Log = log.New(io.Discard, "", 0)
	}
}

// Stats is a point-in-time snapshot of the log's counters. Records,
// Bytes, Replayed, TornTail, Compactions and FsyncBatches are
// monotonic (they back the ecod_persist_*_total metrics); Live,
// Garbage and Segments describe the current on-disk state.
type Stats struct {
	Records      int64 // records appended since open
	Bytes        int64 // bytes appended since open (frame + body)
	Replayed     int64 // records replayed at open
	TornTail     int64 // torn/corrupt tails dropped by recovery scans
	Compactions  int64 // completed compactions
	FsyncBatches int64 // group-commit fsync batches issued
	Live         int64 // records currently on disk minus known garbage
	Garbage      int64 // records known superseded or evicted
	Segments     int   // segment files currently on disk
}

// Log is an append-only segment log. Safe for concurrent use.
type Log struct {
	opts Options

	// mu guards the active segment: appends, rotation, and the
	// on-disk record/garbage accounting.
	mu       sync.Mutex
	f        *os.File
	size     int64
	seq      uint64
	segments int
	closed   bool

	records  int64 // records currently on disk (replayed + appended - compacted)
	garbage  int64 // of those, known dead (superseded transitions, evictions)
	appended int64 // monotonic: records appended since open
	appBytes int64 // monotonic: bytes appended since open
	replayed int64
	tornTail atomic.Int64

	// Group commit: appenders publish the id of their record as
	// pending and wait until synced catches up; one fsync covers every
	// record written before it started.
	sm           sync.Mutex
	syncCond     *sync.Cond // wakes the sync loop
	doneCond     *sync.Cond // wakes waiting appenders
	pending      int64
	synced       int64
	syncErr      error
	smClosed     bool
	fsyncBatches int64

	// Compaction.
	snapshot    func(w *SnapshotWriter) error
	compacting  atomic.Bool
	compactions atomic.Int64
	compactWG   sync.WaitGroup

	flushStop chan struct{}
	flushDone chan struct{}
}

// segName formats the on-disk name of segment seq.
func segName(seq uint64) string { return fmt.Sprintf("seg-%016d.log", seq) }

// parseSegName extracts the sequence number, reporting ok=false for
// foreign files (temp files, stray droppings).
func parseSegName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "seg-%016d.log", &seq); err != nil {
		return 0, false
	}
	if segName(seq) != name {
		return 0, false
	}
	return seq, true
}

// Open opens (creating if needed) the log in opts.Dir and replays
// every intact record in segment order through apply. A torn or
// corrupt tail is counted, logged, and truncated off the active
// segment; it never fails the open. apply must tolerate any payload
// that passed the CRC — semantically invalid records are its to skip.
func Open(opts Options, apply func(typ RecordType, payload []byte)) (*Log, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, errors.New("persist: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	l := &Log{
		opts:      opts,
		flushStop: make(chan struct{}),
		flushDone: make(chan struct{}),
	}
	l.syncCond = sync.NewCond(&l.sm)
	l.doneCond = sync.NewCond(&l.sm)

	seqs, err := l.listSegments()
	if err != nil {
		return nil, err
	}
	for i, seq := range seqs {
		last := i == len(seqs)-1
		if err := l.replaySegment(seq, last, apply); err != nil {
			return nil, err
		}
	}
	// Open (or create) the active segment: the highest existing
	// sequence, or segment 1 of a fresh log.
	active := uint64(1)
	if len(seqs) > 0 {
		active = seqs[len(seqs)-1]
	}
	path := filepath.Join(opts.Dir, segName(active))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: %w", err)
	}
	l.f, l.size, l.seq = f, size, active
	l.segments = len(seqs)
	if l.segments == 0 {
		l.segments = 1
	}

	go l.syncLoop()
	go l.flushLoop()
	return l, nil
}

// listSegments returns the on-disk segment sequence numbers, sorted.
func (l *Log) listSegments() ([]uint64, error) {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// replaySegment scans one segment through apply. A scan failure —
// short header, oversized length, CRC mismatch — is a torn tail: the
// rest of the segment is unreachable (framing is lost), so the scan
// stops there. The active (last) segment is truncated back to its
// valid prefix so appends resume on a clean boundary; a sealed
// segment is left as is and just logged.
func (l *Log) replaySegment(seq uint64, active bool, apply func(RecordType, []byte)) error {
	path := filepath.Join(l.opts.Dir, segName(seq))
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	n, valid, torn, err := scanRecords(f, apply)
	f.Close()
	if err != nil {
		return fmt.Errorf("persist: replay %s: %w", segName(seq), err)
	}
	l.records += n
	l.replayed += n
	if torn {
		l.tornTail.Add(1)
		l.opts.Log.Printf("persist: torn_tail in %s: %d intact records, truncating at byte %d",
			segName(seq), n, valid)
		if active {
			if err := os.Truncate(path, valid); err != nil {
				return fmt.Errorf("persist: truncate torn tail: %w", err)
			}
		}
	}
	return nil
}

// scanRecords reads length-prefixed CRC-checked records from r until
// EOF or the first bad frame, calling apply for each intact record.
// It returns the record count, the byte offset just past the last
// intact record, and whether trailing bytes were dropped as a torn
// tail. Only an I/O error from r (not corruption) is returned as err.
func scanRecords(r io.Reader, apply func(typ RecordType, payload []byte)) (n, valid int64, torn bool, err error) {
	var hdr [headerBytes]byte
	var body []byte
	for {
		_, herr := io.ReadFull(r, hdr[:])
		if herr == io.EOF {
			return n, valid, false, nil
		}
		if herr == io.ErrUnexpectedEOF {
			return n, valid, true, nil
		}
		if herr != nil {
			return n, valid, false, herr
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxRecordBytes {
			return n, valid, true, nil
		}
		if cap(body) < int(length) {
			body = make([]byte, length)
		}
		body = body[:length]
		if _, berr := io.ReadFull(r, body); berr != nil {
			if berr == io.EOF || berr == io.ErrUnexpectedEOF {
				return n, valid, true, nil
			}
			return n, valid, false, berr
		}
		if crc32.Checksum(body, crcTable) != want {
			return n, valid, true, nil
		}
		apply(RecordType(body[0]), body[1:])
		n++
		valid += headerBytes + int64(length)
	}
}

// frame renders one record into buf (reused across appends).
func frame(buf []byte, typ RecordType, payload []byte) []byte {
	buf = buf[:0]
	length := uint32(len(payload) + 1)
	buf = binary.LittleEndian.AppendUint32(buf, length)
	buf = append(buf, 0, 0, 0, 0) // CRC placeholder
	buf = append(buf, byte(typ))
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[headerBytes:], crcTable))
	return buf
}

// Append writes one record and blocks until it is fsync-durable,
// sharing its fsync with every other append in flight (group commit).
func (l *Log) Append(typ RecordType, payload []byte) error {
	return l.append(typ, payload, true)
}

// AppendAsync writes one record without waiting for durability; the
// background flusher fsyncs it within FlushInterval (or sooner, when
// a durable append batches it along). Losing the tail of async
// records in a crash is the caller's accepted risk — the daemon uses
// this for non-terminal job transitions (a job whose running record is
// lost recovers as failed, as it would anyway).
func (l *Log) AppendAsync(typ RecordType, payload []byte) error {
	return l.append(typ, payload, false)
}

func (l *Log) append(typ RecordType, payload []byte, durable bool) error {
	if len(payload)+1 > maxRecordBytes {
		return fmt.Errorf("persist: record of %d bytes exceeds limit", len(payload))
	}
	rec := frame(make([]byte, 0, headerBytes+1+len(payload)), typ, payload)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.size > 0 && l.size+int64(len(rec)) > l.opts.MaxSegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	if _, err := l.f.Write(rec); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("persist: %w", err)
	}
	l.size += int64(len(rec))
	l.records++
	l.appended++
	l.appBytes += int64(len(rec))
	id := l.appended
	l.mu.Unlock()

	l.maybeCompact()

	if !durable || l.opts.NoSync {
		return nil
	}
	l.sm.Lock()
	if id > l.pending {
		l.pending = id
		l.syncCond.Signal()
	}
	for l.synced < id && l.syncErr == nil && !l.smClosed {
		l.doneCond.Wait()
	}
	err := l.syncErr
	l.sm.Unlock()
	return err
}

// rotateLocked seals the active segment (fsync so every record in it
// is durable before the group-commit accounting moves past it) and
// starts the next one. Caller holds l.mu.
func (l *Log) rotateLocked() error {
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("persist: %w", err)
		}
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	l.seq++
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segName(l.seq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	l.f, l.size = f, 0
	l.segments++
	return nil
}

// syncLoop is the group-commit engine: it sleeps until some append
// requests durability, then issues one fsync that covers every record
// written before the fsync started and wakes all of them.
func (l *Log) syncLoop() {
	for {
		l.sm.Lock()
		for l.pending <= l.synced && !l.smClosed {
			l.syncCond.Wait()
		}
		if l.smClosed {
			l.doneCond.Broadcast()
			l.sm.Unlock()
			return
		}
		l.sm.Unlock()

		l.mu.Lock()
		target := l.appended
		f := l.f
		closed := l.closed
		l.mu.Unlock()
		var err error
		if !closed && !l.opts.NoSync {
			// Records in sealed segments were fsynced at rotation, so
			// syncing the active file makes everything <= target
			// durable.
			if err = f.Sync(); err != nil {
				// A handle closed by a racing Close is not a sync
				// failure: Close fsyncs before closing.
				l.mu.Lock()
				if l.closed {
					err = nil
				}
				l.mu.Unlock()
			}
		}

		l.sm.Lock()
		l.fsyncBatches++
		if err != nil && l.syncErr == nil {
			l.syncErr = fmt.Errorf("persist: fsync: %w", err)
		}
		if target > l.synced {
			l.synced = target
		}
		l.doneCond.Broadcast()
		l.sm.Unlock()
	}
}

// flushLoop periodically promotes async appends into the group-commit
// pipeline so AppendAsync records become durable within FlushInterval.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-t.C:
			l.mu.Lock()
			target := l.appended
			l.mu.Unlock()
			l.sm.Lock()
			if target > l.pending {
				l.pending = target
				l.syncCond.Signal()
			}
			l.sm.Unlock()
		}
	}
}

// SetSnapshot installs the compaction source: a callback that writes
// every live record (current in-memory state) into w. Compaction is
// disabled until one is set. Must be installed before the log sees
// concurrent appends.
func (l *Log) SetSnapshot(fn func(w *SnapshotWriter) error) { l.snapshot = fn }

// SetLive declares how many of the on-disk records are live after
// replay (the rest is garbage: superseded transitions, evicted jobs,
// and records of retired types). Called once by the owner when its replay bookkeeping is
// done.
func (l *Log) SetLive(live int64) {
	l.mu.Lock()
	g := l.records - live
	if g < 0 {
		g = 0
	}
	l.garbage = g
	l.mu.Unlock()
}

// MarkGarbage declares n on-disk records dead: an evicted job, or a
// job transition superseded by a newer record. Feeds the compaction
// trigger.
func (l *Log) MarkGarbage(n int64) {
	if n <= 0 {
		return
	}
	l.mu.Lock()
	l.garbage += n
	if l.garbage > l.records {
		l.garbage = l.records
	}
	l.mu.Unlock()
	l.maybeCompact()
}

// maybeCompact starts a background compaction when the garbage ratio
// passes the threshold. At most one compaction runs at a time.
func (l *Log) maybeCompact() {
	if l.snapshot == nil {
		return
	}
	l.mu.Lock()
	due := !l.closed && l.records >= l.opts.CompactMinRecords &&
		float64(l.garbage) > l.opts.CompactRatio*float64(l.records)
	l.mu.Unlock()
	if !due || !l.compacting.CompareAndSwap(false, true) {
		return
	}
	l.compactWG.Add(1)
	go func() {
		defer l.compactWG.Done()
		defer l.compacting.Store(false)
		if err := l.compact(); err != nil {
			l.opts.Log.Printf("persist: compaction failed: %v", err)
		}
	}()
}

// CompactNow runs one compaction synchronously (tests; an operator
// hook). Returns nil when another compaction is already in flight.
func (l *Log) CompactNow() error {
	if l.snapshot == nil {
		return errors.New("persist: no snapshot source installed")
	}
	if !l.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer l.compacting.Store(false)
	return l.compact()
}

// compact rewrites the live state into one fresh segment and deletes
// the segments it supersedes:
//
//  1. under the append lock, seal the active segment S and direct new
//     appends at S+2, reserving S+1 for the snapshot;
//  2. write the owner's live snapshot to a temp file, fsync, rename
//     it to segment S+1, fsync the directory;
//  3. delete every segment <= S.
//
// Replay order makes every crash window safe: the snapshot sorts
// after the segments it replaces and before the appends that followed
// it, and job records are idempotent (most advanced state wins per
// ID). A crash before the rename
// leaves the old segments plus the tail; after the rename, the
// superseded segments merely replay first until the deletes finish.
func (l *Log) compact() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	oldSeqHigh := l.seq
	preRecords := l.records
	snapSeq := l.seq + 1
	l.seq += 2
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			l.seq = oldSeqHigh
			l.mu.Unlock()
			return fmt.Errorf("persist: %w", err)
		}
	}
	if err := l.f.Close(); err != nil {
		l.seq = oldSeqHigh
		l.mu.Unlock()
		return fmt.Errorf("persist: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segName(l.seq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		l.mu.Unlock()
		return fmt.Errorf("persist: %w", err)
	}
	l.f, l.size = f, 0
	l.segments++
	l.mu.Unlock()

	// The snapshot callback reads the owner's in-memory state, which
	// is a superset of everything in segments <= oldSeqHigh (owners
	// update memory before appending). Inserts racing this read land
	// in the new tail and replay after the snapshot — idempotent.
	tmp, err := os.CreateTemp(l.opts.Dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	sw := &SnapshotWriter{f: tmp}
	if err := l.snapshot(sw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if !l.opts.NoSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("persist: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(l.opts.Dir, segName(snapSeq))); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: %w", err)
	}
	l.syncDirBestEffort()

	// Delete the superseded segments.
	seqs, err := l.listSegments()
	if err != nil {
		return err
	}
	removed := 0
	for _, seq := range seqs {
		if seq <= oldSeqHigh {
			if err := os.Remove(filepath.Join(l.opts.Dir, segName(seq))); err != nil {
				l.opts.Log.Printf("persist: compaction: remove %s: %v", segName(seq), err)
				continue
			}
			removed++
		}
	}
	l.syncDirBestEffort()

	l.mu.Lock()
	// Everything before the rotation collapsed into snapRecords live
	// records; garbage accrued since the rotation keeps counting.
	delta := preRecords - sw.n
	l.records -= delta
	l.garbage -= delta
	if l.garbage < 0 {
		l.garbage = 0
	}
	if l.records < 0 {
		l.records = 0
	}
	l.segments -= removed - 1 // removed old segments, added the snapshot
	l.mu.Unlock()
	l.compactions.Add(1)
	l.opts.Log.Printf("persist: compacted %d records into %d (%d segments removed)",
		preRecords, sw.n, removed)
	return nil
}

// syncDirBestEffort fsyncs the data directory so renames and deletes
// survive a crash; filesystems that reject directory fsync are
// tolerated (the operations are still ordered by the journal).
func (l *Log) syncDirBestEffort() {
	if l.opts.NoSync {
		return
	}
	d, err := os.Open(l.opts.Dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// SnapshotWriter frames live records into a compaction snapshot.
type SnapshotWriter struct {
	f   *os.File
	buf []byte
	n   int64
}

// Write appends one record to the snapshot.
func (w *SnapshotWriter) Write(typ RecordType, payload []byte) error {
	w.buf = frame(w.buf, typ, payload)
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	w.n++
	return nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	s := Stats{
		Records:  l.appended,
		Bytes:    l.appBytes,
		Replayed: l.replayed,
		Live:     l.records - l.garbage,
		Garbage:  l.garbage,
		Segments: l.segments,
	}
	l.mu.Unlock()
	s.TornTail = l.tornTail.Load()
	s.Compactions = l.compactions.Load()
	l.sm.Lock()
	s.FsyncBatches = l.fsyncBatches
	l.sm.Unlock()
	return s
}

// Close flushes, fsyncs and closes the log. Further appends return
// ErrClosed. Safe to call once; the daemon calls it at the end of
// drain — a kill -9 simply skips it, which is the scenario recovery
// is built for.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()

	close(l.flushStop)
	<-l.flushDone
	l.compactWG.Wait()

	l.mu.Lock()
	var err error
	if !l.opts.NoSync {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()

	l.sm.Lock()
	l.smClosed = true
	l.syncCond.Broadcast()
	l.doneCond.Broadcast()
	l.sm.Unlock()
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}
