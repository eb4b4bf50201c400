package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"sync"

	"ecopatch/internal/eco"
)

// requestDigest hashes the solve-relevant content of one submission:
// the raw netlist and weight sources, the engine options through
// eco.Options.AppendKey, and the resolved Timeout, which AppendKey
// leaves out but which decides whether a job completes. The job name
// is excluded (labels do not change results). Two submissions with equal digests would run the
// identical solve, so the daemon serves the second from the first's
// result instead.
func requestDigest(req *JobRequest, opt eco.Options) string {
	h := sha256.New()
	var n [8]byte
	wi := func(v uint64) {
		binary.LittleEndian.PutUint64(n[:], v)
		h.Write(n[:])
	}
	ws := func(s string) {
		wi(uint64(len(s)))
		io.WriteString(h, s)
	}
	ws("ecod-digest@v6")
	ws(req.Impl)
	ws(req.Spec)
	ws(req.Weights)
	for _, w := range opt.AppendKey(nil) {
		wi(w)
	}
	wi(uint64(opt.Timeout))
	return hex.EncodeToString(h.Sum(nil))
}

// doneEntry is one cached completed result plus the job that
// produced it (so deduped statuses can point at their origin).
type doneEntry struct {
	res   *JobResult
	jobID string
}

// inflightEntry tracks one digest currently being solved: the parent
// job doing the work and the duplicate submissions waiting on it.
type inflightEntry struct {
	parent  *Job
	waiters []*Job
}

// resultCache is the daemon-level content-addressed result cache:
// completed StateDone results are retained up to max entries (FIFO
// eviction), and duplicate submissions arriving while the original is
// still queued or running attach to it instead of re-solving.
//
// Locking: rc.mu is leaf-level — nothing is called under it that can
// take the store lock. Waiter resolution (store.Finish) happens in
// the caller after complete returns.
type resultCache struct {
	mu       sync.Mutex
	max      int
	done     map[string]*doneEntry
	order    []string // done-map insertion order, for FIFO eviction
	inflight map[string]*inflightEntry
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = 256
	}
	return &resultCache{
		max:      max,
		done:     make(map[string]*doneEntry),
		inflight: make(map[string]*inflightEntry),
	}
}

// admit decides the cache path for one not-yet-registered submission
// under a single lock hold. A completed result returns (res, false):
// the caller registers j born-terminal with that result. An in-flight
// parent returns (nil, true): j has been appended to the parent's
// waiter list and will be finished when the parent is. (nil, false)
// is a miss — the caller becomes the parent via markInflight after
// admission. In the first two cases j.dedupOf is set here, before any
// other goroutine can observe j.
func (rc *resultCache) admit(digest string, j *Job) (*JobResult, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if e, ok := rc.done[digest]; ok {
		j.dedupOf = e.jobID
		return e.res, false
	}
	if fl, ok := rc.inflight[digest]; ok {
		j.dedupOf = fl.parent.ID
		fl.waiters = append(fl.waiters, j)
		return nil, true
	}
	return nil, false
}

// markInflight installs j as the digest's in-flight parent. Called
// after j is enqueued, so j may already have been picked up — and
// even finished — by a worker; a finished job must not be installed
// (its complete() has already run and nobody would ever drain the
// entry's waiters). An existing entry is left alone: two racing
// parents for one digest just means one redundant solve.
func (rc *resultCache) markInflight(digest string, j *Job) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, ok := rc.inflight[digest]; ok {
		return
	}
	select {
	case <-j.done:
		return
	default:
	}
	rc.inflight[digest] = &inflightEntry{parent: j}
}

// complete records a parent's terminal outcome: the result enters the
// done cache when the job actually completed (other terminal states —
// failed, cancelled, timeout — are facts about that run, not about
// the instance, and are never cached), and the digest's waiters are
// returned for the caller to finish with the same outcome.
func (rc *resultCache) complete(digest, jobID string, cacheable bool, res *JobResult) []*Job {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if cacheable && res != nil {
		rc.insertLocked(digest, jobID, res)
	}
	fl, ok := rc.inflight[digest]
	if !ok {
		return nil
	}
	delete(rc.inflight, digest)
	return fl.waiters
}

// restore warms the done cache with a completed result replayed from
// the persistence log (skipping digests already present — replay is
// first-wins, matching the live path's "first insertion wins"). FIFO
// bound applies as on the live path.
func (rc *resultCache) restore(digest, jobID string, res *JobResult) {
	if digest == "" || res == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.insertLocked(digest, jobID, res)
}

// insertLocked adds a completed result to the done cache. The first
// insertion of a digest wins; past max entries the oldest is evicted.
func (rc *resultCache) insertLocked(digest, jobID string, res *JobResult) {
	if _, ok := rc.done[digest]; ok {
		return
	}
	rc.done[digest] = &doneEntry{res: res, jobID: jobID}
	rc.order = append(rc.order, digest)
	for len(rc.order) > rc.max {
		delete(rc.done, rc.order[0])
		rc.order = rc.order[1:]
	}
}

// entries reports the completed-result count, for the metrics gauge.
func (rc *resultCache) entries() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.done)
}
