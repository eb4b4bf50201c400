package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"ecopatch/internal/eco"
)

// Job is one unit of work owned by the store. All mutable fields are
// guarded by the store's mutex; workers and handlers go through store
// methods rather than touching jobs directly.
//
// mu serializes the job's transitions (Start, the terminal one) with
// the writes of its file: each write snapshots the job under mu, and a
// terminal transition is written before it becomes visible. So a job
// reported finished is on disk, a lower state never overwrites a
// higher one, and a terminal job — the only kind eviction removes — is
// never written again. Lock order: Job.mu before Store.mu.
type Job struct {
	ID   string
	Name string

	inst *eco.Instance
	opt  eco.Options

	state      State
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
	errMsg     string
	result     *JobResult

	// cancel interrupts the in-flight solve (set while running).
	cancel context.CancelFunc
	// userCancelled marks a DELETE (or drain) so the worker can
	// distinguish "cancelled" from "timeout" when SolveContext comes
	// back with TimedOut set.
	userCancelled bool
	// done closes when the job reaches a terminal state, for waiters.
	done chan struct{}

	// digest is the result-cache key of the job's input (empty when
	// the cache is off or the job is a dedup waiter).
	digest string
	// dedupOf is the ID of the in-flight or completed job whose
	// result this job shares (content-addressed dedup).
	dedupOf string

	// recovered marks a job restored from the data dir that was
	// queued or running when the daemon died: its solve context died
	// with the process, so it is restored as failed.
	recovered bool

	mu sync.Mutex // orders transitions with file writes (see above)
}

// Store is the in-memory job index. It retains at most maxJobs
// entries: once full, the oldest *terminal* jobs are evicted so a
// long-running daemon does not grow without bound (queued and running
// jobs are never evicted).
type Store struct {
	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // insertion order, for eviction and listing
	maxJobs int

	// onFinish observes every terminal transition (metrics, dedup
	// waiters) with the engine stats of the solve the transition ends,
	// nil when the job ran none. Called without the store lock held.
	onFinish func(*Job, JobStatus, *eco.Stats)
	// onEvict observes capacity evictions with the jobs dropped,
	// called without the store lock held. The persistence layer hooks
	// it to delete their files.
	onEvict func([]*Job)
	// persist writes a job's status to its file, called with Job.mu
	// held and the store lock released; nil without a data dir.
	persist func(*Job, JobStatus)
}

// NewStore builds a store retaining up to maxJobs entries
// (default 1024 when <= 0).
func NewStore(maxJobs int) *Store {
	if maxJobs <= 0 {
		maxJobs = 1024
	}
	return &Store{jobs: make(map[string]*Job), maxJobs: maxJobs}
}

// newID returns a 16-hex-digit random job ID.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the OS entropy pool is broken;
		// fall back to a time-derived ID rather than crashing the
		// daemon's submit path.
		return fmt.Sprintf("t%015x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// NewJob builds a queued job without registering it in the index.
// The submit path enqueues first and registers only on successful
// admission: a job that was never admitted can then never be found —
// and cancelled — by ID, so a shed submission cannot race a DELETE
// into a phantom terminal transition that double-counts in /metrics.
func (st *Store) NewJob(name string, inst *eco.Instance, opt eco.Options) *Job {
	return &Job{
		ID:       newID(),
		Name:     name,
		inst:     inst,
		opt:      opt,
		state:    StateQueued,
		queuedAt: time.Now(),
		done:     make(chan struct{}),
	}
}

// Register makes a job visible in the index. Start/Finish operate on
// the *Job directly, so a worker may legally pick the job up (or even
// finish it) before registration completes.
func (st *Store) Register(j *Job) {
	st.mu.Lock()
	st.jobs[j.ID] = j
	st.order = append(st.order, j.ID)
	evicted := st.evictLocked()
	onEvict := st.onEvict
	st.mu.Unlock()
	if len(evicted) > 0 && onEvict != nil {
		onEvict(evicted)
	}
}

// Restore inserts a terminal job recovered from the data dir. The job
// is born finished (its done channel pre-closed) and carries whatever
// result its file preserved. Reports false when the ID is already
// present.
func (st *Store) Restore(s JobStatus) bool {
	if !s.State.Terminal() {
		return false // recovery converts these to failed before calling
	}
	st.mu.Lock()
	if _, ok := st.jobs[s.ID]; ok {
		st.mu.Unlock()
		return false
	}
	j := &Job{
		ID:        s.ID,
		Name:      s.Name,
		state:     s.State,
		queuedAt:  s.QueuedAt,
		errMsg:    s.Error,
		result:    s.Result,
		dedupOf:   s.DedupOf,
		recovered: s.Recovered,
		done:      make(chan struct{}),
	}
	if s.StartedAt != nil {
		j.startedAt = *s.StartedAt
	}
	if s.FinishedAt != nil {
		j.finishedAt = *s.FinishedAt
	}
	close(j.done)
	st.jobs[j.ID] = j
	st.order = append(st.order, j.ID)
	evicted := st.evictLocked()
	onEvict := st.onEvict
	st.mu.Unlock()
	if len(evicted) > 0 && onEvict != nil {
		onEvict(evicted)
	}
	return true
}

// evictLocked drops the oldest terminal jobs while over capacity,
// returning the jobs dropped.
func (st *Store) evictLocked() []*Job {
	if len(st.jobs) <= st.maxJobs {
		return nil
	}
	var evicted []*Job
	kept := st.order[:0]
	for _, id := range st.order {
		j, ok := st.jobs[id]
		if !ok {
			continue
		}
		if len(st.jobs) > st.maxJobs && j.state.Terminal() {
			delete(st.jobs, id)
			evicted = append(evicted, j)
			continue
		}
		kept = append(kept, id)
	}
	st.order = kept
	return evicted
}

// Get returns the status snapshot of one job.
func (st *Store) Get(id string) (JobStatus, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.statusLocked(), true
}

// Done exposes the job's completion channel, or nil if unknown.
func (st *Store) Done(id string) <-chan struct{} {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j, ok := st.jobs[id]; ok {
		return j.done
	}
	return nil
}

// List returns status snapshots in submission order, without results
// (listings stay small even when jobs carry big patch netlists).
// A non-empty state keeps only jobs in that state; limit > 0 keeps
// only the most recently submitted limit jobs after filtering.
func (st *Store) List(state State, limit int) []JobStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]JobStatus, 0, len(st.order))
	for _, id := range st.order {
		if j, ok := st.jobs[id]; ok {
			if state != "" && j.state != state {
				continue
			}
			s := j.statusLocked()
			s.Result = nil
			out = append(out, s)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Counts tallies jobs per state.
func (st *Store) Counts() map[State]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[State]int, len(States))
	for _, j := range st.jobs {
		out[j.state]++
	}
	return out
}

// statusLocked snapshots the wire form. Caller holds st.mu.
func (j *Job) statusLocked() JobStatus {
	s := JobStatus{
		ID:        j.ID,
		Name:      j.Name,
		State:     j.state,
		QueuedAt:  j.queuedAt,
		Error:     j.errMsg,
		Result:    j.result,
		DedupOf:   j.dedupOf,
		Recovered: j.recovered,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		s.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		s.FinishedAt = &t
	}
	return s
}

// Start transitions queued → running, installs the cancel hook and
// writes the job's file. It returns false when the job is no longer
// runnable (cancelled while sitting in the queue) — the worker must
// then skip it.
func (st *Store) Start(j *Job, cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	st.mu.Lock()
	if j.state != StateQueued {
		st.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.startedAt = time.Now()
	j.cancel = cancel
	status := j.statusLocked()
	persist := st.persist
	st.mu.Unlock()
	if persist != nil {
		persist(j, status)
	}
	return true
}

// PersistQueued writes the file of a job that is still queued; once a
// worker started it, Start has written a later state.
func (st *Store) PersistQueued(j *Job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st.mu.Lock()
	status := j.statusLocked()
	persist := st.persist
	st.mu.Unlock()
	if persist != nil && status.State == StateQueued {
		persist(j, status)
	}
}

// Finish transitions a job to a terminal state with an optional
// result and the engine stats of the solve the job ran (nil when it
// ran none, e.g. when it shares another job's result). Idempotent:
// only the first terminal transition wins.
func (st *Store) Finish(j *Job, state State, errMsg string, result *JobResult, stats *eco.Stats) {
	st.finish(j, false, state, errMsg, result, stats)
}

// finish is Finish; with queuedOnly it applies only to a job still
// queued (a cancel racing the worker's Start). It reports whether the
// transition happened. The job's file is written before the new state
// becomes visible, so a job anyone saw finish survives a kill -9.
func (st *Store) finish(j *Job, queuedOnly bool, state State, errMsg string, result *JobResult, stats *eco.Stats) bool {
	j.mu.Lock()
	st.mu.Lock()
	if j.state.Terminal() || (queuedOnly && j.state != StateQueued) {
		st.mu.Unlock()
		j.mu.Unlock()
		return false
	}
	status := j.statusLocked()
	onFinish, persist := st.onFinish, st.persist
	st.mu.Unlock()

	now := time.Now()
	status.State, status.Error, status.Result, status.FinishedAt = state, errMsg, result, &now
	if persist != nil {
		persist(j, status)
	}
	st.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.result = result
	j.finishedAt = now
	j.cancel = nil
	close(j.done)
	st.mu.Unlock()
	j.mu.Unlock()
	if onFinish != nil {
		onFinish(j, status, stats)
	}
	return true
}

// Cancel requests cancellation of a job by ID. A queued job is
// finished immediately; a running job has its context cancelled and
// reaches StateCancelled when the worker observes the interrupt. The
// returned status reflects the state after the call.
func (st *Store) Cancel(id, reason string) (JobStatus, bool) {
	st.mu.Lock()
	j, ok := st.jobs[id]
	st.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	st.finish(j, true, StateCancelled, reason, nil, nil)
	st.mu.Lock()
	var cancel context.CancelFunc
	if j.state == StateRunning {
		j.userCancelled = true
		cancel = j.cancel
	}
	status := j.statusLocked()
	st.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return status, true
}

// CancelRunning cancels the context of every running job (drain
// grace expiry). The workers record the partial results.
func (st *Store) CancelRunning(reason string) {
	st.mu.Lock()
	var cancels []context.CancelFunc
	for _, j := range st.jobs {
		if j.state == StateRunning {
			j.userCancelled = true
			j.errMsg = reason
			if j.cancel != nil {
				cancels = append(cancels, j.cancel)
			}
		}
	}
	st.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// UserCancelled reports whether the job was cancelled by request (as
// opposed to its own deadline), for terminal-state classification.
func (st *Store) UserCancelled(j *Job) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return j.userCancelled
}
