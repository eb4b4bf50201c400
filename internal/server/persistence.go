package server

import (
	"encoding/json"
	"fmt"
	"time"

	"ecopatch/internal/persist"
)

// jobRecord is the JSON payload of one RecJob record: the job's wire
// status plus the result-cache digest, so a replayed done job can warm
// the content-addressed dedup cache.
type jobRecord struct {
	Digest string    `json:"digest,omitempty"`
	Status JobStatus `json:"status"`
}

// stateRank orders lifecycle states for replay merging. Appends from
// the submit goroutine (queued) and the worker (running, terminal) are
// not strictly ordered on disk, so replay keeps the most advanced
// state per job rather than trusting raw log order — a terminal record
// is never demoted by a late-arriving queued record.
func stateRank(s State) int {
	switch s {
	case StateQueued:
		return 0
	case StateRunning:
		return 1
	default:
		return 2
	}
}

// persistence wires a persist.Log through the daemon: replay on open
// (restore job history, warm the result cache), job-record appends on
// the live paths, and a compaction snapshot over the retained jobs.
type persistence struct {
	s  *Server
	lg *persist.Log
}

// openPersistence opens (or creates) the data dir's segment log and
// replays it into the server's stores. Called from New after the
// caches exist and before any worker or handler runs, so replay needs
// no locking discipline beyond what the stores already provide.
//
// Jobs that were queued or running at the crash cannot be resumed (the
// solve context died with the process); they are restored as failed
// with Recovered set and a distinct "recovered" error, so operators
// can tell a crash casualty from a genuine engine failure.
//
// Records of the retired RecSolve type (solve-cache entries written by
// older daemons) are skipped and counted; they stay garbage until
// compaction drops them.
func openPersistence(s *Server, dir string) (*persistence, error) {
	p := &persistence{s: s}
	var (
		jobs                     = map[string]*jobRecord{}
		order                    []string
		jobSkipped, retiredSolve int
	)
	lg, err := persist.Open(persist.Options{Dir: dir, Log: s.cfg.Log}, func(typ persist.RecordType, payload []byte) {
		switch typ {
		case persist.RecSolve:
			retiredSolve++
		case persist.RecJob:
			var rec jobRecord
			if json.Unmarshal(payload, &rec) != nil || rec.Status.ID == "" {
				jobSkipped++
				return
			}
			prev, ok := jobs[rec.Status.ID]
			if !ok {
				order = append(order, rec.Status.ID)
				cp := rec
				jobs[rec.Status.ID] = &cp
				return
			}
			if stateRank(rec.Status.State) >= stateRank(prev.Status.State) {
				*prev = rec
			}
		}
	})
	if err != nil {
		return nil, err
	}
	p.lg = lg

	now := time.Now()
	for _, id := range order {
		rec := jobs[id]
		st := rec.Status
		if !st.State.Terminal() {
			st.Error = fmt.Sprintf("recovered: daemon restarted while job was %s", st.State)
			st.State = StateFailed
			st.Recovered = true
			t := now
			st.FinishedAt = &t
			st.Result = nil
		}
		if s.store.Restore(st) && st.State == StateDone && rec.Digest != "" && s.rcache != nil {
			s.rcache.restore(rec.Digest, st.ID, st.Result)
		}
	}

	// Live = the jobs that survived into memory (replay may have
	// evicted some by the store's own bound); the rest of the replayed
	// records, retired solve records included, is garbage feeding the
	// compaction trigger.
	liveJobs := 0
	for _, n := range s.store.Counts() {
		liveJobs += n
	}
	lg.SetLive(int64(liveJobs))

	// The eviction hook goes in only after replay (SetLive already
	// counted replay's own evictions); it feeds the garbage counter
	// that triggers compaction.
	s.store.onEvict = func(n int) { lg.MarkGarbage(int64(n)) }
	lg.SetSnapshot(p.snapshot)
	s.cfg.Log.Printf("persist: %s: replayed %d jobs (%d skipped)", dir, liveJobs, jobSkipped)
	if retiredSolve > 0 {
		s.cfg.Log.Printf("persist: %s: skipped %d retired solve-cache records (dropped at the next compaction)", dir, retiredSolve)
	}
	return p, nil
}

// snapshot writes the current live state for compaction: one record
// per retained job. Replay order is safe because the snapshot segment
// sorts before the post-compaction tail and job records merge
// idempotently.
func (p *persistence) snapshot(w *persist.SnapshotWriter) error {
	for _, rec := range p.s.store.persistSnapshot() {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if err := w.Write(persist.RecJob, b); err != nil {
			return err
		}
	}
	return nil
}

// saveJob appends one job transition record. Terminal records are
// durable (group-commit fsync: the smoke contract is that a finished
// job survives kill -9); queued/running records are async — losing the
// tail just means the job recovers as failed, which is what a crashed
// queued/running job becomes anyway.
func (p *persistence) saveJob(j *Job, status JobStatus, durable bool) {
	b, err := json.Marshal(jobRecord{Digest: j.digest, Status: status})
	if err != nil {
		p.s.cfg.Log.Printf("persist: job %s: encode: %v", j.ID, err)
		return
	}
	// Every record after the job's first supersedes the previous one.
	if j.persistCount.Add(1) > 1 {
		p.lg.MarkGarbage(1)
	}
	if durable {
		err = p.lg.Append(persist.RecJob, b)
	} else {
		err = p.lg.AppendAsync(persist.RecJob, b)
	}
	if err != nil && err != persist.ErrClosed {
		p.s.cfg.Log.Printf("persist: job %s: append: %v", j.ID, err)
	}
}
