package server

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"ecopatch/internal/eco"
	"ecopatch/internal/persist"
)

// latencyBuckets are the upper bounds (seconds) of the solve-latency
// histogram. ECO solve times are heavy-tailed, so the buckets span
// sub-millisecond structural fixes up to minute-class SAT grinds.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: bucket counts are cumulative, +Inf implied by count).
type histogram struct {
	counts []int64
	sum    float64
	total  int64
}

func newHistogram() *histogram { return &histogram{counts: make([]int64, len(latencyBuckets))} }

func (h *histogram) observe(v float64) {
	h.sum += v
	h.total++
	for i, ub := range latencyBuckets {
		if v <= ub {
			h.counts[i]++
		}
	}
}

// Metrics aggregates the daemon's observability counters. All
// methods are safe for concurrent use.
type Metrics struct {
	mu        sync.Mutex
	submitted int64
	shed      int64 // admission rejections: queue full (429)
	rejected  int64 // admission rejections: draining (503)
	finished  map[State]int64

	// Result-cache admission outcomes (only counted when the cache
	// is enabled; hits + attached + misses == cache-eligible submits).
	cacheHits     int64 // served instantly from a completed result
	cacheAttached int64 // deduped onto an in-flight identical job
	cacheMisses   int64 // went to the solve pool

	queueWait *histogram // seconds from enqueue to worker pickup
	solveTime *histogram // seconds inside eco.SolveContext

	// stats sums the eco.Stats of every job that ran a solve, the
	// service-level continuation of ecobench's per-run cells.
	stats eco.Stats
}

// NewMetrics builds an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		finished:  make(map[State]int64),
		queueWait: newHistogram(),
		solveTime: newHistogram(),
	}
}

// Submitted counts one accepted job.
func (m *Metrics) Submitted() {
	m.mu.Lock()
	m.submitted++
	m.mu.Unlock()
}

// Shed counts one queue-full rejection.
func (m *Metrics) Shed() {
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

// RejectedDraining counts one submission refused during drain.
func (m *Metrics) RejectedDraining() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// CacheHit counts one submission served from a completed result.
func (m *Metrics) CacheHit() {
	m.mu.Lock()
	m.cacheHits++
	m.mu.Unlock()
}

// CacheAttached counts one submission deduped onto an in-flight job.
func (m *Metrics) CacheAttached() {
	m.mu.Lock()
	m.cacheAttached++
	m.mu.Unlock()
}

// CacheMiss counts one cache-eligible submission that had to solve.
func (m *Metrics) CacheMiss() {
	m.mu.Lock()
	m.cacheMisses++
	m.mu.Unlock()
}

// QueueWait records the queued→running latency of one job.
func (m *Metrics) QueueWait(d time.Duration) {
	m.mu.Lock()
	m.queueWait.observe(d.Seconds())
	m.mu.Unlock()
}

// Finished records a terminal transition with the job's solve wall
// clock and, when the job ran a solve itself, the engine's stats of
// that solve (nil otherwise).
func (m *Metrics) Finished(state State, solve time.Duration, stats *eco.Stats) {
	m.mu.Lock()
	m.finished[state]++
	if solve > 0 {
		m.solveTime.observe(solve.Seconds())
	}
	if stats != nil {
		m.stats.Add(*stats)
	}
	m.mu.Unlock()
}

// gauges the exposition needs but Metrics does not own.
type gaugeSnapshot struct {
	queueDepth    int
	queueCapacity int
	running       int
	workers       int
	draining      bool
	counts        map[State]int

	// Result-cache occupancy (zero when caching is disabled).
	cacheEnabled bool
	cacheEntries int // completed results retained for dedup

	// Persistence-log counters (persistEnabled false without -data-dir)
	// and process uptime.
	persistEnabled bool
	persist        persist.Stats
	uptimeSec      float64
}

// buildInfo caches the ecod_build_info line: go version plus the main
// module's version and VCS revision when the binary carries them.
var buildInfo struct {
	once sync.Once
	line string
}

func buildInfoLine() string {
	buildInfo.once.Do(func() {
		version, revision := "unknown", "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			if bi.Main.Version != "" {
				version = bi.Main.Version
			}
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					revision = s.Value
				}
			}
		}
		buildInfo.line = fmt.Sprintf("ecod_build_info{go_version=%q,version=%q,revision=%q} 1\n",
			runtime.Version(), version, revision)
	})
	return buildInfo.line
}

// WritePrometheus renders the Prometheus text exposition format
// (version 0.0.4; hand-rolled — the repo takes no dependencies).
func (m *Metrics) WritePrometheus(w io.Writer, g gaugeSnapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("ecod_jobs_submitted_total", "Jobs accepted into the queue.", m.submitted)
	counter("ecod_jobs_shed_total", "Submissions rejected with 429 because the queue was full.", m.shed)
	counter("ecod_jobs_rejected_draining_total", "Submissions rejected with 503 during drain.", m.rejected)

	counter("ecod_cache_hits_total", "Submissions served instantly from a cached completed result.", m.cacheHits)
	counter("ecod_cache_attached_total", "Submissions deduped onto an identical in-flight job.", m.cacheAttached)
	counter("ecod_cache_misses_total", "Cache-eligible submissions that went to the solve pool.", m.cacheMisses)

	fmt.Fprintf(w, "# HELP ecod_jobs_finished_total Terminal job transitions by state.\n# TYPE ecod_jobs_finished_total counter\n")
	for _, s := range States {
		if s.Terminal() {
			fmt.Fprintf(w, "ecod_jobs_finished_total{state=%q} %d\n", s, m.finished[s])
		}
	}

	fmt.Fprintf(w, "# HELP ecod_jobs Current jobs by state.\n# TYPE ecod_jobs gauge\n")
	states := make([]string, 0, len(States))
	for _, s := range States {
		states = append(states, string(s))
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "ecod_jobs{state=%q} %d\n", s, g.counts[State(s)])
	}

	gauge("ecod_queue_depth", "Jobs waiting in the admission queue.", int64(g.queueDepth))
	gauge("ecod_queue_capacity", "Admission queue capacity.", int64(g.queueCapacity))
	gauge("ecod_jobs_running", "Jobs currently being solved.", int64(g.running))
	gauge("ecod_workers", "Worker goroutines in the solve pool.", int64(g.workers))
	draining := int64(0)
	if g.draining {
		draining = 1
	}
	gauge("ecod_draining", "1 while the daemon is draining (no new admissions).", draining)

	fmt.Fprintf(w, "# HELP ecod_uptime_seconds Seconds since the daemon started.\n# TYPE ecod_uptime_seconds gauge\necod_uptime_seconds %g\n", g.uptimeSec)
	fmt.Fprintf(w, "# HELP ecod_build_info Build metadata as labels, value fixed at 1.\n# TYPE ecod_build_info gauge\n%s", buildInfoLine())

	if g.persistEnabled {
		p := g.persist
		counter("ecod_persist_records_total", "Records appended to the persistence log since boot.", p.Records)
		counter("ecod_persist_bytes_total", "Bytes appended to the persistence log since boot.", p.Bytes)
		counter("ecod_persist_replayed_total", "Records replayed from the persistence log at boot.", p.Replayed)
		counter("ecod_persist_torn_tail_total", "Torn or corrupt log tails dropped by recovery scans.", p.TornTail)
		counter("ecod_persist_compactions_total", "Completed persistence-log compactions.", p.Compactions)
		counter("ecod_persist_fsync_batches_total", "Group-commit fsync batches issued by the persistence log.", p.FsyncBatches)
		gauge("ecod_persist_live_records", "On-disk records still live (not superseded or evicted).", p.Live)
		gauge("ecod_persist_garbage_records", "On-disk records known dead, feeding the compaction trigger.", p.Garbage)
		gauge("ecod_persist_segments", "Segment files in the data directory.", int64(p.Segments))
	}

	if g.cacheEnabled {
		gauge("ecod_cache_entries", "Completed results retained by the dedup cache.", int64(g.cacheEntries))
	}

	writeHistogram(w, "ecod_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.", m.queueWait)
	writeHistogram(w, "ecod_solve_seconds", "Wall-clock time inside eco.SolveContext.", m.solveTime)

	// Engine + SAT-kernel counters: eco.Stats summed over every job
	// that ran a solve, each counter one field. A table1@v1 cell's
	// sat_calls is Solver.SolveCalls (ecod_sat_solve_calls_total), not
	// SATCalls (ecod_eco_sat_calls_total).
	st := m.stats
	counter("ecod_eco_sat_calls_total", "Top-level SAT queries issued by the engine, including those answered by the pattern bank.", st.SATCalls)
	counter("ecod_eco_minimize_calls_total", "SAT calls spent inside support minimization.", int64(st.MinimizeCalls))
	counter("ecod_eco_structural_fixes_total", "Targets patched by the structural fallback.", int64(st.StructuralFixes))
	counter("ecod_eco_constant_targets_total", "Targets settled as constants by the one-copy check.", int64(st.ConstantTargets))
	counter("ecod_eco_cubes_enumerated_total", "SOP cubes enumerated for patch functions.", int64(st.CubesEnumerated))
	counter("ecod_sim_elided_total", "SAT calls answered from the banked-model pattern store.", st.SimElided)
	counter("ecod_sim_pruned_divisors_total", "Divisors dropped by simulation-guided pruning.", st.SimPruned)
	counter("ecod_sim_patterns_total", "Simulation patterns banked (models + counterexamples).", st.SimPatterns)
	fcounter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	fcounter("ecod_eco_support_seconds_total", "Support-selection wall clock.", st.SupportTime.Seconds())
	fcounter("ecod_eco_patch_seconds_total", "Patch-computation wall clock.", st.PatchTime.Seconds())
	fcounter("ecod_eco_verify_seconds_total", "Verification wall clock.", st.VerifyTime.Seconds())
	counter("ecod_sat_conflicts_total", "SAT kernel conflicts.", st.Solver.Conflicts)
	counter("ecod_sat_decisions_total", "SAT kernel decisions.", st.Solver.Decisions)
	counter("ecod_sat_propagations_total", "SAT kernel propagations.", st.Solver.Propagations)
	counter("ecod_sat_restarts_total", "SAT kernel restarts.", st.Solver.Restarts)
	counter("ecod_sat_learnts_total", "Clauses learnt by the SAT kernel.", st.Solver.Learnts)
	counter("ecod_sat_learnts_removed_total", "Learnt clauses evicted by DB reduction.", st.Solver.Removed)
	counter("ecod_sat_solve_calls_total", "Solve() invocations on SAT kernels.", st.Solver.SolveCalls)
}

func writeHistogram(w io.Writer, name, help string, h *histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, ub := range latencyBuckets {
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, ub, h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.total)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.total)
}
