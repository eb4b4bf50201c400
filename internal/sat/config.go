package sat

// Search heuristics, Glucose-style: restarts driven by the fast/slow
// LBD comparison with trail-size blocking, and a two-tier learnt
// database.
const (
	// coreLBD is the LBD cut of the core learnt tier: clauses learnt
	// with LBD <= coreLBD are kept forever; the rest live in the local
	// tier and are subject to eviction.
	coreLBD = 3
	// firstReduce is the local-tier size that triggers the first
	// learnt-DB reduction; reduceInc is added after each reduction.
	firstReduce = 2000
	reduceInc   = 300

	// restartMargin is the Glucose K: restart when the average LBD of
	// the last lbdWindow conflicts times restartMargin exceeds the
	// all-time average.
	restartMargin = 0.8
	// blockMargin is the Glucose R: delay a pending restart when the
	// trail is blockMargin times longer than its recent average (the
	// search is probably digging toward a model).
	blockMargin = 1.4
	// lbdWindow and trailWindow size the two moving averages.
	lbdWindow   = 50
	trailWindow = 5000
	// blockMinConflicts disables restart blocking until this many
	// conflicts have accumulated.
	blockMinConflicts = 10000

	// varDecay and clauseDecay are the VSIDS decay factors.
	varDecay    = 0.95
	clauseDecay = 0.999
)

// boundedQueue is a fixed-capacity ring with a running sum, the
// building block of the Glucose fast/slow restart averages.
type boundedQueue struct {
	elems []uint32
	idx   int
	n     int
	sum   uint64
}

func newBoundedQueue(cap int) boundedQueue {
	return boundedQueue{elems: make([]uint32, cap)}
}

func (q *boundedQueue) push(x uint32) {
	if q.n == len(q.elems) {
		q.sum -= uint64(q.elems[q.idx])
	} else {
		q.n++
	}
	q.sum += uint64(x)
	q.elems[q.idx] = x
	q.idx++
	if q.idx == len(q.elems) {
		q.idx = 0
	}
}

func (q *boundedQueue) full() bool { return q.n == len(q.elems) }

func (q *boundedQueue) avg() float64 {
	if q.n == 0 {
		return 0
	}
	return float64(q.sum) / float64(q.n)
}

func (q *boundedQueue) clear() {
	q.idx, q.n, q.sum = 0, 0, 0
}
