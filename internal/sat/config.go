package sat

// RestartPolicy selects the solver's restart strategy.
type RestartPolicy uint8

const (
	// RestartGlucose drives restarts with the Glucose fast/slow
	// comparison: restart when the average LBD of the last LBDWindow
	// conflicts exceeds RestartMargin times the all-time average,
	// with trail-size blocking to protect runs that are close to a
	// model. This is the default.
	RestartGlucose RestartPolicy = iota
	// RestartLuby restarts on the Luby sequence scaled by LubyBase
	// (the pre-Glucose MiniSat behavior), kept as a fallback knob.
	RestartLuby
)

func (p RestartPolicy) String() string {
	if p == RestartLuby {
		return "luby"
	}
	return "glucose"
}

// Config tunes the solver's search heuristics. The zero value is not
// meaningful; start from DefaultConfig. All knobs have safe defaults
// applied by NewWithConfig, so partially filled configs work.
type Config struct {
	// Restart selects the restart strategy.
	Restart RestartPolicy
	// LubyBase is the conflict-count unit of the Luby sequence
	// (RestartLuby only). Default 100.
	LubyBase int

	// CoreLBD is the LBD cut of the core learnt tier: clauses learnt
	// with LBD <= CoreLBD are kept forever; the rest live in the
	// local tier and are subject to eviction. Default 3.
	CoreLBD uint32
	// FirstReduce is the local-tier size that triggers the first
	// learnt-DB reduction; ReduceInc is added after each reduction.
	// Defaults 2000 and 300.
	FirstReduce int
	ReduceInc   int

	// RestartMargin is the Glucose K: restart when
	// recentAvgLBD * RestartMargin > globalAvgLBD. Default 0.8.
	RestartMargin float64
	// BlockMargin is the Glucose R: delay a pending restart when the
	// trail is BlockMargin times longer than its recent average
	// (the search is probably digging toward a model). Default 1.4.
	BlockMargin float64
	// LBDWindow and TrailWindow size the two moving averages.
	// Defaults 50 and 5000.
	LBDWindow   int
	TrailWindow int
	// BlockMinConflicts disables restart blocking until this many
	// conflicts have accumulated. Default 10000.
	BlockMinConflicts int64

	// VarDecay and ClauseDecay are the VSIDS decay factors.
	// Defaults 0.95 and 0.999.
	VarDecay    float64
	ClauseDecay float64
}

// DefaultConfig returns the Glucose-style defaults.
func DefaultConfig() Config {
	return Config{
		Restart:           RestartGlucose,
		LubyBase:          100,
		CoreLBD:           3,
		FirstReduce:       2000,
		ReduceInc:         300,
		RestartMargin:     0.8,
		BlockMargin:       1.4,
		LBDWindow:         50,
		TrailWindow:       5000,
		BlockMinConflicts: 10000,
		VarDecay:          0.95,
		ClauseDecay:       0.999,
	}
}

// applyDefaults fills zero fields so hand-built configs stay valid.
func (c *Config) applyDefaults() {
	d := DefaultConfig()
	if c.LubyBase <= 0 {
		c.LubyBase = d.LubyBase
	}
	if c.CoreLBD == 0 {
		c.CoreLBD = d.CoreLBD
	}
	if c.FirstReduce <= 0 {
		c.FirstReduce = d.FirstReduce
	}
	if c.ReduceInc <= 0 {
		c.ReduceInc = d.ReduceInc
	}
	if c.RestartMargin <= 0 {
		c.RestartMargin = d.RestartMargin
	}
	if c.BlockMargin <= 0 {
		c.BlockMargin = d.BlockMargin
	}
	if c.LBDWindow <= 0 {
		c.LBDWindow = d.LBDWindow
	}
	if c.TrailWindow <= 0 {
		c.TrailWindow = d.TrailWindow
	}
	if c.BlockMinConflicts <= 0 {
		c.BlockMinConflicts = d.BlockMinConflicts
	}
	if c.VarDecay <= 0 {
		c.VarDecay = d.VarDecay
	}
	if c.ClauseDecay <= 0 {
		c.ClauseDecay = d.ClauseDecay
	}
}

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
