package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecopatch/internal/atomicio"
	"ecopatch/internal/cache"
	"ecopatch/internal/eco"
)

// Config tunes the daemon.
type Config struct {
	// Workers is the solve-pool size (default: GOMAXPROCS). ECO
	// solves are CPU-bound, so more workers than cores just thrashes.
	Workers int
	// QueueCap bounds the admission queue (default 64). A full queue
	// sheds new submissions with 429 + Retry-After instead of letting
	// latency grow without bound.
	QueueCap int
	// MaxJobs bounds the job store (default 1024); oldest finished
	// jobs are evicted first.
	MaxJobs int
	// DefaultTimeout applies to jobs that set no deadline of their
	// own; zero leaves them unbounded.
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-job deadlines; zero means no clamp.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 32 MiB — contest
	// netlists are text and compress poorly, but a full design still
	// fits comfortably).
	MaxBodyBytes int64
	// ResultsDir, when set, persists every finished job's result as
	// <dir>/<id>.json, written atomically.
	ResultsDir string
	// DataDir, when set, enables crash-safe persistence: job
	// transitions are appended to a segment log in this directory and
	// replayed on the next boot — finished jobs stay
	// listable with their results, identical re-submissions hit the
	// warmed result cache, and jobs that were queued or running at the
	// crash come back as failed with Recovered set.
	DataDir string
	// CacheEntries, when > 0, enables the daemon's two caches: the
	// content-addressed result cache (completed results served
	// instantly to identical submissions, in-flight duplicates
	// attached to the job already solving them) and the engine's
	// window store (QBF feasibility outcomes and per-target patches)
	// shared by every job. Each holds at most this many entries; the
	// window store also bounds its retained key words to 2048 times
	// this. Zero disables caching entirely.
	CacheEntries int
	// Log receives operational lines; nil discards them.
	Log *log.Logger
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
}

// Server is the ecod daemon core: store + queue + worker pool +
// metrics, exposed over an http.Handler. Create with New, serve
// Handler(), stop with Drain.
type Server struct {
	cfg     Config
	store   *Store
	metrics *Metrics

	// rcache dedupes whole jobs by input digest; ecoCache is the
	// shared window store threaded into every job's options.
	// Both are nil when Config.CacheEntries is zero.
	rcache   *resultCache
	ecoCache *cache.Store

	// persist is the on-disk durability layer (nil without DataDir);
	// start stamps boot time for the uptime gauge.
	persist *persistence
	start   time.Time

	queue    chan *Job
	quit     chan struct{}
	drained  chan struct{}
	draining atomic.Bool
	running  atomic.Int64
	wg       sync.WaitGroup

	// solve runs one job; tests stub it to control timing. Defaults
	// to eco.SolveContext.
	solve func(ctx context.Context, inst *eco.Instance, opt eco.Options) (*eco.Result, error)
}

// New builds a server and starts its worker pool. With Config.DataDir
// set it also opens the persistence log and replays it — the only way
// New can fail.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		store:   NewStore(cfg.MaxJobs),
		metrics: NewMetrics(),
		queue:   make(chan *Job, cfg.QueueCap),
		quit:    make(chan struct{}),
		drained: make(chan struct{}),
		solve:   eco.SolveContext,
		start:   time.Now(),
	}
	if cfg.CacheEntries > 0 {
		s.rcache = newResultCache(cfg.CacheEntries)
		s.ecoCache = cache.NewStore(cfg.CacheEntries)
	}
	s.store.onFinish = s.jobFinished
	if cfg.DataDir != "" {
		// Replay happens here, before any worker or handler exists, so
		// the stores are warmed without racing live traffic.
		p, err := openPersistence(s, cfg.DataDir)
		if err != nil {
			return nil, err
		}
		s.persist = p
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Metrics exposes the metrics set (for embedding hosts).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Store exposes the job store (for embedding hosts and tests).
func (s *Server) Store() *Store { return s.store }

// worker pulls jobs until drain. The non-blocking quit check first
// makes drain deterministic: once quit closes, no worker starts
// another queued job even if the queue is non-empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one job end to end and records its terminal state.
func (s *Server) runJob(j *Job) {
	if s.ecoCache != nil {
		j.opt.Cache = s.ecoCache
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !s.store.Start(j, cancel) {
		return // cancelled while queued
	}
	s.persistJob(j, false)
	s.metrics.QueueWait(time.Since(j.queuedAt))
	s.running.Add(1)
	defer s.running.Add(-1)

	start := time.Now()
	res, err := s.solve(ctx, j.inst, j.opt)
	elapsed := time.Since(start)
	switch {
	case err != nil:
		s.cfg.Log.Printf("job %s failed after %v: %v", j.ID, elapsed.Round(time.Millisecond), err)
		s.store.Finish(j, StateFailed, err.Error(), nil)
	case res.TimedOut && s.store.UserCancelled(j):
		s.store.Finish(j, StateCancelled, "job cancelled", resultFromEco(res))
	case res.TimedOut:
		s.store.Finish(j, StateTimeout, "deadline exceeded; partial result attached", resultFromEco(res))
	default:
		s.store.Finish(j, StateDone, "", resultFromEco(res))
	}
}

// persistJob appends the job's current status to the persistence log
// (no-op without DataDir). Non-terminal snapshots ride the async path.
func (s *Server) persistJob(j *Job, durable bool) {
	if s.persist == nil {
		return
	}
	status, ok := s.store.Get(j.ID)
	if !ok {
		// Not registered yet (worker outran the submit goroutine):
		// snapshot through the job's own fields under the store lock.
		status = func() JobStatus {
			s.store.mu.Lock()
			defer s.store.mu.Unlock()
			return j.statusLocked()
		}()
	}
	status.Result = nil // terminal records carry results via jobFinished
	s.persist.saveJob(j, status, durable)
}

// jobFinished is the store's terminal-transition hook: metrics and
// the optional on-disk result file.
func (s *Server) jobFinished(j *Job, status JobStatus) {
	var solve time.Duration
	if status.StartedAt != nil && status.FinishedAt != nil {
		solve = status.FinishedAt.Sub(*status.StartedAt)
	}
	var stats *eco.Stats
	// Aggregate engine counters only for jobs that actually ran a
	// solve. Jobs finished without starting — cancelled while queued,
	// dedup waiters, and instant cache hits — carry a copy of some
	// other run's result (or none), and folding that copy in would
	// count the same solve's work once per duplicate.
	if status.Result != nil && status.StartedAt != nil {
		// Reconstruct the counters the metrics surface aggregates
		// from the wire cell (the full eco.Stats is not retained).
		stats = &eco.Stats{
			SATCalls:        status.Result.SATCalls,
			StructuralFixes: status.Result.Structural,
			SupportTime:     time.Duration(status.Result.SupportSec * float64(time.Second)),
			PatchTime:       time.Duration(status.Result.PatchSec * float64(time.Second)),
			VerifyTime:      time.Duration(status.Result.VerifySec * float64(time.Second)),
		}
		stats.Solver.SolveCalls = status.Result.SATCalls
		stats.Solver.Conflicts = status.Result.Conflicts
		stats.Solver.Decisions = status.Result.Decisions
		stats.Solver.Propagations = status.Result.Propagations
		stats.Solver.Restarts = status.Result.Restarts
		stats.Solver.Learnts = status.Result.Learnts
		stats.Solver.Removed = status.Result.LearntEvict
		stats.CacheHits = status.Result.CacheHits
		stats.CacheMisses = status.Result.CacheMisses
		stats.CacheCollisions = status.Result.CacheCollisions
		stats.SimElided = status.Result.SimElided
		stats.SimPruned = status.Result.SimPruned
		stats.SimPatterns = status.Result.SimPatterns
	}
	s.metrics.Finished(status.State, solve, stats)
	s.cfg.Log.Printf("job %s (%s) -> %s", j.ID, j.Name, status.State)

	// Terminal records are durable (group-commit fsync): a finished
	// job — result included — must survive kill -9.
	if s.persist != nil {
		s.persist.saveJob(j, status, true)
	}

	// Resolve result-cache bookkeeping: cache the completed result and
	// finish every duplicate submission that attached while this job
	// was in flight. Waiters carry no digest, so this cannot recurse,
	// and Finish is idempotent, so a waiter cancelled in the meantime
	// keeps its cancellation.
	if s.rcache != nil && j.digest != "" {
		waiters := s.rcache.complete(j.digest, j.ID, status.State == StateDone, status.Result)
		for _, wj := range waiters {
			s.store.Finish(wj, status.State, status.Error, status.Result)
		}
	}

	if s.cfg.ResultsDir != "" && status.Result != nil {
		path := filepath.Join(s.cfg.ResultsDir, j.ID+".json")
		err := atomicio.WriteFile(path, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(status)
		})
		if err != nil {
			s.cfg.Log.Printf("job %s: result file: %v", j.ID, err)
		}
	}
}

// Drain stops the daemon gracefully: admission closes (503), workers
// stop picking up queued jobs (which are cancelled and flushed), and
// in-flight solves get the grace period to finish naturally before
// their contexts are cancelled — the engine then stops at the next
// stage boundary and the partial results are recorded. Drain blocks
// until every worker has exited. Safe to call more than once.
func (s *Server) Drain(grace time.Duration) {
	if !s.draining.CompareAndSwap(false, true) {
		<-s.drained
		return
	}
	s.cfg.Log.Printf("draining: admission closed, grace %v", grace)
	close(s.quit)
	// Cancel everything still queued; workers no longer take from the
	// queue once quit is closed.
sweep:
	for {
		select {
		case j := <-s.queue:
			s.store.Finish(j, StateCancelled, "server draining", nil)
		default:
			break sweep
		}
	}
	var timer *time.Timer
	if grace > 0 {
		timer = time.AfterFunc(grace, func() {
			s.cfg.Log.Printf("drain grace expired; interrupting in-flight solves")
			s.store.CancelRunning("server draining")
		})
	} else {
		s.store.CancelRunning("server draining")
	}
	s.wg.Wait()
	if timer != nil {
		timer.Stop()
	}
	// A submission that raced the sweep may still sit in the queue;
	// no worker will ever run it, so flush it here.
	for {
		select {
		case j := <-s.queue:
			s.store.Finish(j, StateCancelled, "server draining", nil)
		default:
			// Every Finish has run by now, so the log holds the final
			// state of every job; seal it before declaring the drain
			// done. A kill -9 skips this — that is what recovery is for.
			if s.persist != nil {
				if err := s.persist.lg.Close(); err != nil {
					s.cfg.Log.Printf("persist: close: %v", err)
				}
			}
			close(s.drained)
			s.cfg.Log.Printf("drain complete")
			return
		}
	}
}

// apiError is the JSON error envelope.
type apiError struct {
	Error         string  `json:"error"`
	RetryAfterSec float64 `json:"retry_after_sec,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, apiError{Error: msg})
}

// retryAfter estimates how long a shed client should back off: the
// queue is full, so at best a slot frees when the next job finishes.
// One second is deliberately coarse — admission pressure, not an SLA.
const retryAfter = 1 * time.Second

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.metrics.RejectedDraining()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req JobRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	inst, err := req.Instance()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	opt, err := req.Options.Eco()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if opt.Timeout == 0 {
		opt.Timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (opt.Timeout == 0 || opt.Timeout > s.cfg.MaxTimeout) {
		opt.Timeout = s.cfg.MaxTimeout
	}
	j := s.store.NewJob(inst.Name, inst, opt)
	if s.rcache != nil {
		digest := requestDigest(&req, opt)
		if res, attached := s.rcache.admit(digest, j); res != nil {
			// Completed result on file: the job is born terminal and
			// never touches the queue or the solve pool.
			s.metrics.CacheHit()
			s.metrics.Submitted()
			s.store.Register(j)
			s.store.Finish(j, StateDone, "", res)
			s.respondSubmitted(w, j)
			return
		} else if attached {
			// Identical job already queued or running: this one rides
			// along and is finished together with its parent.
			s.metrics.CacheAttached()
			s.metrics.Submitted()
			s.store.Register(j)
			s.persistJob(j, false)
			s.respondSubmitted(w, j)
			return
		}
		s.metrics.CacheMiss()
		j.digest = digest
	}

	// Enqueue before registering: a shed job is then never visible by
	// ID, so a racing DELETE cannot drive it to a second terminal
	// transition (shed + cancelled) and double-count in /metrics.
	select {
	case s.queue <- j:
	default:
		// Admission control: bounded queue is full — shed the load
		// now rather than queueing into unbounded latency.
		s.metrics.Shed()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retryAfter.Seconds())))
		writeJSON(w, http.StatusTooManyRequests, apiError{
			Error:         "queue full",
			RetryAfterSec: retryAfter.Seconds(),
		})
		return
	}
	s.metrics.Submitted()
	s.store.Register(j)
	if s.rcache != nil && j.digest != "" {
		s.rcache.markInflight(j.digest, j)
	}
	s.persistJob(j, false)
	s.respondSubmitted(w, j)
}

// respondSubmitted writes the 201 for one admitted job.
func (s *Server) respondSubmitted(w http.ResponseWriter, j *Job) {
	status, _ := s.store.Get(j.ID)
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusCreated, status)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	status, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var state State
	if v := q.Get("state"); v != "" {
		state = State(v)
		valid := false
		for _, known := range States {
			if state == known {
				valid = true
				break
			}
		}
		if !valid {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown state %q", v))
			return
		}
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid limit %q", v))
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: s.store.List(state, limit)})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	status, ok := s.store.Cancel(r.PathValue("id"), "cancelled by request")
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	// A running job cancels asynchronously: 202 tells the client the
	// interrupt is in flight and the terminal state is still coming.
	code := http.StatusOK
	if !status.State.Terminal() {
		code = http.StatusAccepted
	}
	writeJSON(w, code, status)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g := gaugeSnapshot{
		queueDepth:    len(s.queue),
		queueCapacity: cap(s.queue),
		running:       int(s.running.Load()),
		workers:       s.cfg.Workers,
		draining:      s.draining.Load(),
		counts:        s.store.Counts(),
	}
	if s.rcache != nil {
		g.cacheEnabled = true
		g.cacheEntries = s.rcache.entries()
		g.windowCacheStats = s.ecoCache.Stats()
	}
	g.uptimeSec = time.Since(s.start).Seconds()
	if s.persist != nil {
		g.persistEnabled = true
		g.persist = s.persist.lg.Stats()
	}
	s.metrics.WritePrometheus(w, g)
}
