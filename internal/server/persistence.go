package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ecopatch/internal/atomicio"
)

// jobRecord is the state one job file holds: the job's wire status
// plus the result-cache digest, so a replayed done job can warm the
// content-addressed dedup cache.
type jobRecord struct {
	Digest string    `json:"digest,omitempty"`
	Status JobStatus `json:"status"`
}

// jobFile is the on-disk envelope of <data-dir>/<id>.json: the
// record's JSON bytes and their CRC32C. Replay accepts a file only
// when the checksum matches, so a bit-flipped record is never
// replayed.
type jobFile struct {
	Record json.RawMessage `json:"record"`
	CRC    uint32          `json:"crc32c"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeJobFile renders one job file.
func encodeJobFile(rec jobRecord) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jobFile{Record: b, CRC: crc32.Checksum(b, crcTable)})
}

// decodeJobFile parses one job file, rejecting a malformed envelope, a
// checksum mismatch, and a record without a job ID.
func decodeJobFile(b []byte) (jobRecord, error) {
	var f jobFile
	if err := json.Unmarshal(b, &f); err != nil {
		return jobRecord{}, err
	}
	if crc32.Checksum(f.Record, crcTable) != f.CRC {
		return jobRecord{}, errors.New("checksum mismatch")
	}
	var rec jobRecord
	if err := json.Unmarshal(f.Record, &rec); err != nil {
		return jobRecord{}, err
	}
	if rec.Status.ID == "" {
		return jobRecord{}, errors.New("record has no job id")
	}
	return rec, nil
}

// persistence keeps one atomically written file per retained job in
// the data dir: replay on open (restore job history, warm the result
// cache), a file write on every job transition (the store's persist
// hook, ordered by Job.mu), and a delete on eviction.
type persistence struct {
	dir string
	log *log.Logger

	// records counts job-file writes since boot; replayed and skipped
	// count the files boot restored and the damaged ones it passed
	// over.
	records, replayed, skipped atomic.Int64
}

func (p *persistence) path(id string) string { return filepath.Join(p.dir, id+".json") }

// openPersistence opens (or creates) the data dir and replays its job
// files into the server's stores. Called from New after the caches
// exist and before any worker or handler runs, so replay needs no
// locking discipline beyond what the stores already provide.
//
// Jobs that were queued or running at the crash cannot be resumed (the
// solve context died with the process); they are restored as failed
// with Recovered set and a distinct "recovered" error, and their files
// are rewritten so the next boot agrees.
//
// A data dir written by the older segment-log daemon (seg-*.log) is
// refused: this daemon cannot read it, and silently dropping that
// history is worse than not starting.
func openPersistence(s *Server, dir string) (*persistence, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var segs, tmps, names []string
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case ent.IsDir():
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".log"):
			segs = append(segs, filepath.Join(dir, name))
		case strings.Contains(name, ".json.tmp"):
			tmps = append(tmps, filepath.Join(dir, name))
		case strings.HasSuffix(name, ".json"):
			names = append(names, name)
		}
	}
	if len(segs) > 0 {
		return nil, fmt.Errorf("persist: %s holds segment-log files of an older ecod (%s); this daemon keeps one file per job and cannot read them: move them out of the data dir",
			dir, strings.Join(segs, ", "))
	}
	p := &persistence{dir: dir, log: s.cfg.Log}
	for _, tmp := range tmps {
		// A write that a crash cut short before its rename.
		if err := os.Remove(tmp); err != nil {
			p.log.Printf("persist: %v", err)
		}
	}
	var recs []jobRecord
	for _, name := range names {
		var rec jobRecord
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err == nil {
			rec, err = decodeJobFile(b)
		}
		if err == nil && rec.Status.ID+".json" != name {
			err = fmt.Errorf("holds job %q", rec.Status.ID)
		}
		if err != nil {
			p.skipped.Add(1)
			p.log.Printf("persist: %s: skipped: %v", name, err)
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(a, b int) bool {
		sa, sb := recs[a].Status, recs[b].Status
		if !sa.QueuedAt.Equal(sb.QueuedAt) {
			return sa.QueuedAt.Before(sb.QueuedAt)
		}
		return sa.ID < sb.ID
	})

	// The eviction hook goes in before replay, so a dir holding more
	// jobs than MaxJobs loses the evicted files too.
	s.store.onEvict = p.evict
	s.store.persist = p.save
	now := time.Now()
	recovered := 0
	for _, rec := range recs {
		st := &rec.Status
		if !st.State.Terminal() {
			st.Error = fmt.Sprintf("recovered: daemon restarted while job was %s", st.State)
			st.State = StateFailed
			st.Recovered = true
			st.FinishedAt = &now
			st.Result = nil
			if err := p.write(rec); err != nil {
				p.log.Printf("persist: job %s: %v", st.ID, err)
			}
			recovered++
		}
		if s.store.Restore(*st) && st.State == StateDone && rec.Digest != "" && s.rcache != nil {
			s.rcache.restore(rec.Digest, st.ID, st.Result)
		}
	}
	p.replayed.Store(int64(len(recs)))
	p.log.Printf("persist: %s: replayed %d jobs (%d recovered, %d skipped)", dir, len(recs), recovered, p.skipped.Load())
	return p, nil
}

// write stores one job file atomically (temp file, fsync, rename,
// directory fsync).
func (p *persistence) write(rec jobRecord) error {
	b, err := encodeJobFile(rec)
	if err != nil {
		return err
	}
	if err := atomicio.WriteFileBytes(p.path(rec.Status.ID), b); err != nil {
		return err
	}
	p.records.Add(1)
	return nil
}

// save is the store's persist hook, called with j.mu held. The write
// is synchronous: a finished job must survive kill -9.
func (p *persistence) save(j *Job, status JobStatus) {
	if err := p.write(jobRecord{Digest: j.digest, Status: status}); err != nil {
		p.log.Printf("persist: job %s: %v", j.ID, err)
	}
}

// evict is the store's eviction hook: it deletes each evicted job's
// file. Taking j.mu orders the delete after the job's terminal write,
// and a terminal job is never written again.
func (p *persistence) evict(jobs []*Job) {
	for _, j := range jobs {
		j.mu.Lock()
		if err := os.Remove(p.path(j.ID)); err != nil && !errors.Is(err, os.ErrNotExist) {
			p.log.Printf("persist: job %s: %v", j.ID, err)
		}
		j.mu.Unlock()
	}
}
