package sat

import (
	"slices"
	"sync/atomic"
)

// watcher pairs a watched clause with a blocker literal: if the
// blocker is already true the clause is satisfied and need not be
// inspected. The low bit of cb tags binary clauses, whose other
// literal IS the blocker, so binary propagation never touches clause
// memory at all.
type watcher struct {
	cb      uint32 // cref<<1 | binary
	blocker Lit
}

func mkWatcher(c CRef, blocker Lit, binary bool) watcher {
	cb := uint32(c) << 1
	if binary {
		cb |= 1
	}
	return watcher{cb: cb, blocker: blocker}
}

func (w watcher) cref() CRef { return CRef(w.cb >> 1) }

// Stats collects solver counters, exposed for the experiment harness
// (e.g. counting SAT calls made by minimize_assumptions) and for the
// per-solver profiling surfaced by ecobench.
type Stats struct {
	Starts       int64
	Decisions    int64
	Propagations int64
	Conflicts    int64
	SolveCalls   int64
	Learnts      int64
	Removed      int64

	// Glucose-kernel counters.
	Restarts        int64 // restarts fired (both policies)
	BlockedRestarts int64 // Glucose restarts delayed by trail blocking
	Reductions      int64 // learnt-DB reduction passes
	LBDSum          int64 // sum of LBDs at learning time (avg = LBDSum/Learnts)
	CorePromotions  int64 // local-tier clauses promoted to the core tier
	ArenaGCs        int64 // clause-arena compactions
}

// Add accumulates o into s, for aggregating counters across solvers.
func (s *Stats) Add(o Stats) {
	s.Starts += o.Starts
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Conflicts += o.Conflicts
	s.SolveCalls += o.SolveCalls
	s.Learnts += o.Learnts
	s.Removed += o.Removed
	s.Restarts += o.Restarts
	s.BlockedRestarts += o.BlockedRestarts
	s.Reductions += o.Reductions
	s.LBDSum += o.LBDSum
	s.CorePromotions += o.CorePromotions
	s.ArenaGCs += o.ArenaGCs
}

// Solver is an incremental CDCL SAT solver. The zero value is not
// usable; create instances with New or NewWithConfig.
type Solver struct {
	ca      arena  // flat clause storage
	clauses []CRef // problem clauses

	// Learnt clauses live in two tiers: core (LBD <= cfg.CoreLBD,
	// kept forever) and local (evicted by LBD-then-activity).
	coreLearnts []CRef
	learnts     []CRef
	reduceLim   int // local-tier size triggering the next reduction

	watches [][]watcher // indexed by Lit
	assigns []LBool     // indexed by Var
	level   []int32     // indexed by Var
	reason  []CRef      // indexed by Var; CRefUndef for decisions
	seen    []byte      // scratch for analyze

	trail    []Lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap
	polarity []bool // saved phases; true = last assigned false

	clauseInc float64

	cfg Config

	okay bool // false once a top-level conflict proves UNSAT

	model    []LBool
	conflict []Lit // assumption core after Unsat under assumptions

	// Budgets; negative means unlimited.
	confBudget int64
	propBudget int64

	// interrupted is set asynchronously by Interrupt and polled in the
	// search loop; while set, Solve returns Unknown. It is the only
	// field that may be touched from another goroutine.
	interrupted atomic.Bool

	// onLearnt, if set, observes every learnt clause. The slice is
	// scratch memory — the hook must copy.
	onLearnt func(lits []Lit, lbd uint32)

	// Restart state.
	lubyIdx    int
	lbdQueue   boundedQueue // recent learnt LBDs (Glucose fast average)
	trailQueue boundedQueue // recent trail sizes at conflicts (blocking)
	sumLBD     float64      // all-time LBD sum (Glucose slow average)

	// LBD computation scratch: per-level stamps.
	lbdStamp   []uint32 // indexed by decision level
	lbdCounter uint32

	analyzeStack []Lit
	analyzeToClr []Lit
	learntTmp    []Lit // analyze's learnt clause, reused across conflicts
	addTmp       []Lit

	Stats Stats

	proof    *Proof       // non-nil when proof logging is enabled
	unitID   []int32      // proof id of the unit clause fixing a var at level 0
	zeroNeed map[Var]bool // scratch: level-0 literals analyze dropped
}

// New returns an empty solver with the default (Glucose-style)
// configuration.
func New() *Solver { return NewWithConfig(DefaultConfig()) }

// NewWithConfig returns an empty solver with explicit heuristics
// configuration. Zero fields of cfg take their defaults.
func NewWithConfig(cfg Config) *Solver {
	cfg.applyDefaults()
	s := &Solver{
		varInc:     1,
		clauseInc:  1,
		okay:       true,
		confBudget: -1,
		propBudget: -1,
		cfg:        cfg,
		reduceLim:  cfg.FirstReduce,
		lbdQueue:   newBoundedQueue(cfg.LBDWindow),
		trailQueue: newBoundedQueue(cfg.TrailWindow),
		lbdStamp:   make([]uint32, 1),
	}
	s.order = newVarHeap(&s.activity)
	return s
}

// Config returns the heuristics configuration the solver runs with.
func (s *Solver) Config() Config { return s.cfg }

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem clauses currently held.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// LearntDB reports the current sizes of the two learnt-clause tiers.
func (s *Solver) LearntDB() (core, local int) {
	return len(s.coreLearnts), len(s.learnts)
}

// Okay reports whether the clause database is still consistent at the
// top level (false once UNSAT has been proved without assumptions).
func (s *Solver) Okay() bool { return s.okay }

// NewVar creates a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, LUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, CRefUndef)
	s.seen = append(s.seen, 0)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true) // negative phase first, as in MiniSat
	s.watches = append(s.watches, nil, nil)
	s.unitID = append(s.unitID, 0)
	s.lbdStamp = append(s.lbdStamp, 0)
	s.order.insert(v)
	return v
}

// EnsureVars creates variables until at least n exist.
func (s *Solver) EnsureVars(n int) {
	for len(s.assigns) < n {
		s.NewVar()
	}
}

// Reserve makes room for vars more variables and clauses more problem
// clauses holding lits literals in all, so that loading a formula of
// known size grows each slice once instead of doubling it step by
// step. It changes no solver state: a solver behaves the same with or
// without it.
func (s *Solver) Reserve(vars, clauses, lits int) {
	s.assigns = slices.Grow(s.assigns, vars)
	s.level = slices.Grow(s.level, vars)
	s.reason = slices.Grow(s.reason, vars)
	s.seen = slices.Grow(s.seen, vars)
	s.activity = slices.Grow(s.activity, vars)
	s.polarity = slices.Grow(s.polarity, vars)
	s.unitID = slices.Grow(s.unitID, vars)
	s.lbdStamp = slices.Grow(s.lbdStamp, vars)
	s.trail = slices.Grow(s.trail, vars)
	s.watches = slices.Grow(s.watches, 2*vars)
	s.order.reserve(vars)
	s.clauses = slices.Grow(s.clauses, clauses)
	s.ca.data = slices.Grow(s.ca.data, lits+clauses*claLits)
}

// Value returns the current assignment of v (valid during search and,
// after a Sat answer, for reading the model).
func (s *Solver) Value(v Var) LBool { return s.assigns[v] }

// LitValue returns the value of literal l under the current assignment.
func (s *Solver) LitValue(l Lit) LBool {
	val := s.assigns[l.Var()]
	if val == LUndef {
		return LUndef
	}
	if l.Sign() {
		return val.Not()
	}
	return val
}

// ModelValue returns the value of l in the most recent model.
// Valid only after Solve returned Sat. Variables created after that
// Solve read as LUndef.
func (s *Solver) ModelValue(l Lit) LBool {
	if int(l.Var()) >= len(s.model) {
		return LUndef
	}
	val := s.model[l.Var()]
	if val == LUndef {
		return LUndef
	}
	if l.Sign() {
		return val.Not()
	}
	return val
}

// ModelBool returns the model value of l as a concrete bool,
// treating an unconstrained variable as false.
func (s *Solver) ModelBool(l Lit) bool { return s.ModelValue(l) == LTrue }

// Failed reports, after Solve returned Unsat under assumptions,
// whether assumption a participated in the final conflict
// (MiniSat's analyze_final core membership test).
func (s *Solver) Failed(a Lit) bool {
	for _, l := range s.conflict {
		if l == a {
			return true
		}
	}
	return false
}

// Core returns the subset of assumption literals involved in the
// final conflict of the last Unsat answer. The slice aliases internal
// state and is valid until the next Solve call.
func (s *Solver) Core() []Lit { return s.conflict }

// SetConfBudget limits the number of conflicts in subsequent Solve
// calls; negative means unlimited. The budget applies per call.
func (s *Solver) SetConfBudget(n int64) { s.confBudget = n }

// SetPropBudget limits the number of propagations in subsequent Solve
// calls; negative means unlimited. The budget applies per call.
func (s *Solver) SetPropBudget(n int64) { s.propBudget = n }

// Interrupt asynchronously aborts the in-flight Solve call (and makes
// any future call return immediately) with status Unknown. It is the
// only Solver method safe to call from another goroutine; the flag
// stays set until ClearInterrupt.
func (s *Solver) Interrupt() { s.interrupted.Store(true) }

// ClearInterrupt re-arms the solver after an Interrupt so subsequent
// Solve calls run normally.
func (s *Solver) ClearInterrupt() { s.interrupted.Store(false) }

// Interrupted reports whether Interrupt has been called and not yet
// cleared.
func (s *Solver) Interrupted() bool { return s.interrupted.Load() }

// SetLearntHook installs an observer called for every clause the
// solver learns (including units), with its LBD. The literal slice is
// reused scratch memory: the hook must copy it to retain it. Pass nil
// to remove.
func (s *Solver) SetLearntHook(fn func(lits []Lit, lbd uint32)) { s.onLearnt = fn }

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

// AddClause adds a clause over the given literals. It returns false
// if the clause database became trivially unsatisfiable. The input
// slice is not retained.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.okay {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called during search")
	}
	// Sort, dedupe, detect tautologies and satisfied clauses. Literals
	// already false at level 0 are dropped — except under proof
	// logging, where dropping them would be an unrecorded resolution
	// step, so they are kept and handled below.
	s.addTmp = append(s.addTmp[:0], lits...)
	sortLits(s.addTmp)
	out := s.addTmp[:0]
	var prev Lit = LitUndef
	for _, l := range s.addTmp {
		if int(l.Var()) >= len(s.assigns) {
			panic("sat: literal over unknown variable")
		}
		switch {
		case s.LitValue(l) == LTrue || l == prev.Not():
			return true // satisfied or tautology
		case l == prev:
			continue // duplicate
		case s.LitValue(l) == LFalse && s.proof == nil:
			continue // falsified at level 0
		}
		out = append(out, l)
		prev = l
	}
	if s.proof != nil {
		s.proof.addRoot(out)
		// Move non-false literals to the watch positions.
		w := 0
		for i, l := range out {
			if s.LitValue(l) != LFalse {
				out[i], out[w] = out[w], out[i]
				w++
				if w == 2 {
					break
				}
			}
		}
		switch w {
		case 0:
			// All literals false at level 0: this clause refutes the
			// formula outright.
			c := s.ca.alloc(out, false, s.proof.lastID)
			s.addFinal(c)
			s.okay = false
			return false
		case 1:
			if len(out) == 1 {
				s.unitID[out[0].Var()] = s.proof.lastID
				s.uncheckedEnqueue(out[0], CRefUndef)
			} else {
				c := s.ca.alloc(out, false, s.proof.lastID)
				s.clauses = append(s.clauses, c)
				s.attachClause(c)
				s.uncheckedEnqueue(out[0], c)
			}
			return s.propagateRoot()
		default:
			c := s.ca.alloc(out, false, s.proof.lastID)
			s.clauses = append(s.clauses, c)
			s.attachClause(c)
			return true
		}
	}
	switch len(out) {
	case 0:
		s.okay = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], CRefUndef)
		return s.propagateRoot()
	}
	c := s.ca.alloc(out, false, 0)
	s.clauses = append(s.clauses, c)
	s.attachClause(c)
	return true
}

// propagateRoot runs propagation at decision level 0 and records the
// refutation in the proof log if a conflict arises.
func (s *Solver) propagateRoot() bool {
	if confl := s.propagate(); confl != CRefUndef {
		if s.proof != nil {
			s.addFinal(confl)
		}
		s.okay = false
	}
	return s.okay
}

func sortLits(ls []Lit) {
	// Insertion sort: clauses are short and this avoids interface
	// overhead from sort.Slice on the hot path.
	for i := 1; i < len(ls); i++ {
		x := ls[i]
		j := i - 1
		for j >= 0 && ls[j] > x {
			ls[j+1] = ls[j]
			j--
		}
		ls[j+1] = x
	}
}

func (s *Solver) attachClause(c CRef) {
	l0, l1 := s.ca.lit(c, 0), s.ca.lit(c, 1)
	bin := s.ca.size(c) == 2
	s.watches[l0.Not()] = append(s.watches[l0.Not()], mkWatcher(c, l1, bin))
	s.watches[l1.Not()] = append(s.watches[l1.Not()], mkWatcher(c, l0, bin))
}

func (s *Solver) detachClause(c CRef) {
	s.removeWatch(s.ca.lit(c, 0).Not(), c)
	s.removeWatch(s.ca.lit(c, 1).Not(), c)
}

func (s *Solver) removeWatch(l Lit, c CRef) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].cref() == c {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) uncheckedEnqueue(l Lit, from CRef) {
	v := l.Var()
	s.assigns[v] = liftBool(!l.Sign())
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation over the flat arena and returns
// the conflicting clause reference, or CRefUndef. Binary clauses are
// resolved entirely from the watcher (blocker = other literal).
func (s *Solver) propagate() CRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		data := s.ca.data
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			switch s.LitValue(w.blocker) {
			case LTrue:
				ws[n] = w
				n++
				continue
			case LFalse:
				if w.cb&1 != 0 {
					// Binary conflict: both literals false.
					ws[n] = w
					n++
					for i++; i < len(ws); i++ {
						ws[n] = ws[i]
						n++
					}
					s.watches[p] = ws[:n]
					s.qhead = len(s.trail)
					return w.cref()
				}
			default:
				if w.cb&1 != 0 {
					// Binary unit: imply the blocker. Normalize the
					// implied literal to position 0 so reason-side
					// consumers (analyze, proofs) see the MiniSat
					// layout.
					c := w.cref()
					if Lit(data[c+claLits]) != w.blocker {
						data[c+claLits], data[c+claLits+1] = data[c+claLits+1], data[c+claLits]
					}
					ws[n] = w
					n++
					s.uncheckedEnqueue(w.blocker, c)
					continue
				}
			}
			c := w.cref()
			base := c + claLits
			// Make sure the false literal is position 1.
			if Lit(data[base]) == p.Not() {
				data[base], data[base+1] = data[base+1], data[base]
			}
			first := Lit(data[base])
			if first != w.blocker && s.LitValue(first) == LTrue {
				ws[n] = watcher{cb: w.cb, blocker: first}
				n++
				continue
			}
			// Look for a new literal to watch.
			end := base + CRef(data[c]>>2)
			for k := base + 2; k < end; k++ {
				if s.LitValue(Lit(data[k])) != LFalse {
					data[base+1], data[k] = data[k], data[base+1]
					nw := Lit(data[base+1]).Not()
					s.watches[nw] = append(s.watches[nw], watcher{cb: w.cb, blocker: first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{cb: w.cb, blocker: first}
			n++
			if s.LitValue(first) == LFalse {
				// Conflict: copy remaining watchers back and stop.
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:n]
	}
	return CRefUndef
}

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		v := s.trail[i].Var()
		s.assigns[v] = LUndef
		s.reason[v] = CRefUndef
		s.polarity[v] = s.trail[i].Sign()
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.qhead = len(s.trail)
	s.trailLim = s.trailLim[:lvl]
}

func (s *Solver) varBumpActivity(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.order.rebuild()
	}
	s.order.decrease(v)
}

func (s *Solver) varDecayActivity() { s.varInc /= s.cfg.VarDecay }

func (s *Solver) claBumpActivity(c CRef) {
	a := s.ca.act(c) + float32(s.clauseInc)
	s.ca.setAct(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.ca.setAct(lc, s.ca.act(lc)*1e-20)
		}
		for _, lc := range s.coreLearnts {
			s.ca.setAct(lc, s.ca.act(lc)*1e-20)
		}
		s.clauseInc *= 1e-20
	}
}

func (s *Solver) claDecayActivity() { s.clauseInc /= s.cfg.ClauseDecay }

// computeLBD returns the literal block distance of lits: the number
// of distinct non-zero decision levels among them, computed with a
// per-level stamp so repeated calls are O(len(lits)).
func (s *Solver) computeLBD(lits []Lit) uint32 {
	s.lbdCounter++
	stamp := s.lbdStamp
	var lbd uint32
	for _, l := range lits {
		lev := s.level[l.Var()]
		if lev > 0 && stamp[lev] != s.lbdCounter {
			stamp[lev] = s.lbdCounter
			lbd++
		}
	}
	return lbd
}

// analyze derives a first-UIP learnt clause from the conflict, the
// backtrack level, and the clause's LBD at learning time. The learnt
// slice is the solver's learntTmp scratch buffer, valid until the next
// analyze: recordLearnt copies it into the arena.
func (s *Solver) analyze(confl CRef) (learnt []Lit, btLevel int32, lbd uint32) {
	learnt = append(s.learntTmp[:0], LitUndef) // placeholder for the asserting literal
	var p Lit = LitUndef
	idx := len(s.trail) - 1
	pathC := 0
	var chain []int32
	var pivots []Var
	if s.proof != nil {
		chain = append(chain, s.ca.id(confl))
	}
	for {
		cLits := s.ca.lits(confl)
		if s.ca.isLearnt(confl) {
			s.claBumpActivity(confl)
			// Dynamic LBD update (Glucose): a clause that keeps
			// participating in conflicts at lower LBD is worth more.
			if len(cLits) > 2 {
				if nl := s.computeLBD(cLits); nl < s.ca.lbd(confl) {
					s.ca.setLBD(confl, nl)
				}
			}
		}
		start := 0
		if p != LitUndef {
			start = 1
		}
		for _, q := range cLits[start:] {
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.varBumpActivity(v)
				s.seen[v] = 1
				if s.level[v] >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			} else if s.level[v] == 0 && s.proof != nil {
				// Dropping a level-0 literal is a resolution with the
				// unit cone; remember to record it.
				s.zeroNeed[v] = true
			}
		}
		// Select next literal to look at.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
		if s.proof != nil && confl != CRefUndef {
			chain = append(chain, s.ca.id(confl))
			pivots = append(pivots, p.Var())
		}
	}
	learnt[0] = p.Not()

	// Clause minimization: remove literals implied by the rest.
	s.analyzeToClr = append(s.analyzeToClr[:0], learnt...)
	for _, l := range learnt {
		s.seen[l.Var()] = 1
	}
	if s.proof == nil {
		// Minimization changes the resolution chain in ways the simple
		// chain logger does not track, so skip it under proof logging.
		j := 1
		for i := 1; i < len(learnt); i++ {
			l := learnt[i]
			if s.reason[l.Var()] == CRefUndef || !s.litRedundant(l) {
				learnt[j] = l
				j++
			}
		}
		learnt = learnt[:j]
	}
	for _, l := range s.analyzeToClr {
		s.seen[l.Var()] = 0
	}

	// LBD at learning time (levels are still pre-backtrack).
	lbd = s.computeLBD(learnt)

	// Compute backtrack level: second-highest level in the clause.
	if len(learnt) == 1 {
		btLevel = 0
	} else {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	if s.proof != nil {
		chain, pivots = s.resolveZeroCone(chain, pivots)
		s.proof.addLearnt(learnt, chain, pivots)
	}
	s.learntTmp = learnt
	return learnt, btLevel, lbd
}

// litRedundant checks whether l is implied by the other literals of
// the learnt clause (marked in seen), walking reasons recursively.
func (s *Solver) litRedundant(l Lit) bool {
	s.analyzeStack = append(s.analyzeStack[:0], l)
	top := len(s.analyzeToClr)
	for len(s.analyzeStack) > 0 {
		v := s.analyzeStack[len(s.analyzeStack)-1].Var()
		s.analyzeStack = s.analyzeStack[:len(s.analyzeStack)-1]
		c := s.reason[v]
		for _, q := range s.ca.lits(c)[1:] {
			qv := q.Var()
			if s.seen[qv] == 0 && s.level[qv] > 0 {
				if s.reason[qv] != CRefUndef {
					s.seen[qv] = 1
					s.analyzeStack = append(s.analyzeStack, q)
					s.analyzeToClr = append(s.analyzeToClr, q)
				} else {
					// Hit a decision: l is not redundant; undo marks.
					for _, u := range s.analyzeToClr[top:] {
						s.seen[u.Var()] = 0
					}
					s.analyzeToClr = s.analyzeToClr[:top]
					return false
				}
			}
		}
	}
	return true
}

// analyzeFinal computes the assumption core given a failed assumption
// literal p (whose complement was implied by earlier assumptions).
// The core is expressed as the subset of assumption literals, as the
// caller passed them, including p itself.
func (s *Solver) analyzeFinal(p Lit) {
	s.conflict = s.conflict[:0]
	s.conflict = append(s.conflict, p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if s.reason[v] == CRefUndef {
			if s.level[v] > 0 {
				// A decision within the assumption levels is an
				// assumption literal; report it as given. (If both a
				// and ¬a were assumed, ¬p appears here and the core
				// is {p, ¬p}, which is correct.)
				s.conflict = append(s.conflict, s.trail[i])
			}
		} else {
			for _, q := range s.ca.lits(s.reason[v])[1:] {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
}

// analyzeFinalConflict computes the assumption core from a conflicting
// clause found while propagating assumption-level decisions.
func (s *Solver) analyzeFinalConflict(confl CRef) {
	s.conflict = s.conflict[:0]
	if s.decisionLevel() == 0 {
		return
	}
	for _, q := range s.ca.lits(confl) {
		if s.level[q.Var()] > 0 {
			s.seen[q.Var()] = 1
		}
	}
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if s.reason[v] == CRefUndef {
			// Decisions below the conflict are assumption literals.
			s.conflict = append(s.conflict, s.trail[i])
		} else {
			for _, q := range s.ca.lits(s.reason[v])[1:] {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
}

// locked reports whether c is the reason of its first literal's
// assignment and therefore must not be removed.
func (s *Solver) locked(c CRef) bool {
	l0 := s.ca.lit(c, 0)
	return s.reason[l0.Var()] == c && s.LitValue(l0) == LTrue
}

// reduceDB trims the local learnt tier. Clauses whose dynamic LBD
// improved to the core cut are promoted first (kept forever); the
// remainder is ranked worst-first by LBD then activity, and the worse
// half is evicted, sparing locked (reason) and binary clauses.
func (s *Solver) reduceDB() {
	s.Stats.Reductions++
	// Promote improved clauses to the core tier.
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if s.ca.lbd(c) <= s.cfg.CoreLBD {
			s.coreLearnts = append(s.coreLearnts, c)
			s.Stats.CorePromotions++
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
	s.sortLearntsWorstFirst()
	half := len(s.learnts) / 2
	j := 0
	for i, c := range s.learnts {
		if i < half && s.ca.size(c) > 2 && !s.locked(c) {
			s.detachClause(c)
			s.ca.free(c)
			s.Stats.Removed++
			continue
		}
		s.learnts[j] = c
		j++
	}
	s.learnts = s.learnts[:j]
	s.reduceLim += s.cfg.ReduceInc
	s.maybeGC()
}

// sortLearntsWorstFirst shell-sorts the local tier so that eviction
// candidates (high LBD, then low activity) come first. No allocations.
func (s *Solver) sortLearntsWorstFirst() {
	cs := s.learnts
	worse := func(a, b CRef) bool {
		la, lb := s.ca.lbd(a), s.ca.lbd(b)
		if la != lb {
			return la > lb
		}
		return s.ca.act(a) < s.ca.act(b)
	}
	for gap := len(cs) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(cs); i++ {
			c := cs[i]
			j := i
			for ; j >= gap && worse(c, cs[j-gap]); j -= gap {
				cs[j] = cs[j-gap]
			}
			cs[j] = c
		}
	}
}

// maybeGC compacts the clause arena once a third of it is garbage.
func (s *Solver) maybeGC() {
	if uint64(s.ca.wasted)*3 < uint64(len(s.ca.data)) {
		return
	}
	s.garbageCollect()
}

// garbageCollect copies every live clause into a fresh arena and
// rewrites all references (watchers, reasons, clause lists) through
// forwarding CRefs left in the old storage — MiniSat's relocAll.
func (s *Solver) garbageCollect() {
	to := arena{data: make([]uint32, 0, len(s.ca.data)-int(s.ca.wasted))}
	for li := range s.watches {
		ws := s.watches[li]
		for i := range ws {
			bin := ws[i].cb & 1
			ws[i].cb = uint32(s.relocate(&to, ws[i].cref()))<<1 | bin
		}
	}
	for _, l := range s.trail {
		v := l.Var()
		if r := s.reason[v]; r != CRefUndef {
			s.reason[v] = s.relocate(&to, r)
		}
	}
	for i, c := range s.clauses {
		s.clauses[i] = s.relocate(&to, c)
	}
	for i, c := range s.coreLearnts {
		s.coreLearnts[i] = s.relocate(&to, c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = s.relocate(&to, c)
	}
	s.ca = to
	s.Stats.ArenaGCs++
}

// relocate moves one clause into the destination arena on first
// touch, leaving a forwarding reference behind.
func (s *Solver) relocate(to *arena, c CRef) CRef {
	h := s.ca.data[c]
	if h&flagReloc != 0 {
		return CRef(s.ca.data[c+claID])
	}
	n := CRef(claLits + int(h>>2))
	nc := CRef(len(to.data))
	to.data = append(to.data, s.ca.data[c:c+n]...)
	s.ca.data[c] = h | flagReloc
	s.ca.data[c+claID] = uint32(nc)
	return nc
}

// luby computes the Luby restart sequence value for index i (1-based),
// scaled by base.
func luby(base float64, i int) float64 {
	// Find the finite subsequence containing i and its position.
	size, seq := 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i = i % size
	}
	p := 1.0
	for k := 0; k < seq; k++ {
		p *= 2
	}
	return base * p
}

// shouldRestart decides, at a conflict-free point, whether to end the
// current search segment. nofConflicts >= 0 selects the Luby budget;
// otherwise the Glucose fast/slow comparison applies.
func (s *Solver) shouldRestart(conflicts, nofConflicts int64) bool {
	if nofConflicts >= 0 {
		if conflicts >= nofConflicts {
			s.Stats.Restarts++
			return true
		}
		return false
	}
	if !s.lbdQueue.full() || s.Stats.Conflicts == 0 {
		return false
	}
	if s.lbdQueue.avg()*s.cfg.RestartMargin > s.sumLBD/float64(s.Stats.Conflicts) {
		s.lbdQueue.clear()
		s.Stats.Restarts++
		return true
	}
	return false
}

// search runs CDCL until a model is found, the formula is refuted,
// a restart fires, or the budget is exhausted.
func (s *Solver) search(nofConflicts int64, assumptions []Lit) Status {
	conflicts := int64(0)
	for {
		if s.interrupted.Load() {
			s.cancelUntil(0)
			return Unknown
		}
		confl := s.propagate()
		if confl != CRefUndef {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				if s.proof != nil {
					s.addFinal(confl)
				}
				s.okay = false
				return Unsat
			}
			// Glucose restart blocking: a trail much longer than the
			// recent average suggests the search is closing in on a
			// model; postpone any pending restart.
			s.trailQueue.push(uint32(len(s.trail)))
			if s.cfg.Restart == RestartGlucose &&
				s.Stats.Conflicts > s.cfg.BlockMinConflicts &&
				s.lbdQueue.full() &&
				float64(len(s.trail)) > s.cfg.BlockMargin*s.trailQueue.avg() {
				s.lbdQueue.clear()
				s.Stats.BlockedRestarts++
			}
			if s.decisionLevel() <= int32(len(assumptions)) {
				// Conflict entirely above assumption decisions:
				// derive the assumption core.
				s.analyzeFinalConflict(confl)
				// Also learn the clause so future calls benefit.
				learnt, btLevel, lbd := s.analyze(confl)
				s.noteLBD(lbd)
				s.cancelUntil(btLevel)
				s.recordLearnt(learnt, lbd)
				if len(s.conflict) == 0 {
					s.okay = false
				}
				return Unsat
			}
			learnt, btLevel, lbd := s.analyze(confl)
			s.noteLBD(lbd)
			s.cancelUntil(btLevel)
			s.recordLearnt(learnt, lbd)
			s.varDecayActivity()
			s.claDecayActivity()
			continue
		}
		// No conflict.
		if s.shouldRestart(conflicts, nofConflicts) {
			s.cancelUntil(0)
			return Unknown
		}
		if s.budgetExhausted() {
			s.cancelUntil(0)
			return Unknown
		}
		if len(s.learnts) >= s.reduceLim {
			s.reduceDB()
		}
		// Assumptions act as forced decisions at the lowest levels.
		var next Lit = LitUndef
		for int(s.decisionLevel()) < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.LitValue(p) {
			case LTrue:
				s.newDecisionLevel() // dummy level keeps indices aligned
			case LFalse:
				s.analyzeFinal(p)
				return Unsat
			default:
				next = p
			}
			if next != LitUndef {
				break
			}
		}
		if next == LitUndef {
			s.Stats.Decisions++
			for !s.order.empty() {
				v := s.order.removeMin()
				if s.assigns[v] == LUndef {
					next = MkLit(v, s.polarity[v])
					break
				}
			}
			if next == LitUndef {
				// All variables assigned: model found.
				s.model = append(s.model[:0], s.assigns...)
				return Sat
			}
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, CRefUndef)
	}
}

// noteLBD feeds a freshly learnt clause's LBD into the restart
// averages and the diagnostics counters.
func (s *Solver) noteLBD(lbd uint32) {
	s.sumLBD += float64(lbd)
	s.Stats.LBDSum += int64(lbd)
	s.lbdQueue.push(lbd)
}

func (s *Solver) recordLearnt(learnt []Lit, lbd uint32) {
	s.Stats.Learnts++
	if s.onLearnt != nil {
		s.onLearnt(learnt, lbd)
	}
	if len(learnt) == 1 {
		if s.proof != nil {
			s.unitID[learnt[0].Var()] = s.proof.lastID
		}
		s.uncheckedEnqueue(learnt[0], CRefUndef)
		return
	}
	id := int32(0)
	if s.proof != nil {
		id = s.proof.lastID
	}
	c := s.ca.alloc(learnt, true, id)
	s.ca.setLBD(c, lbd)
	if lbd <= s.cfg.CoreLBD {
		s.coreLearnts = append(s.coreLearnts, c)
	} else {
		s.learnts = append(s.learnts, c)
	}
	s.attachClause(c)
	s.claBumpActivity(c)
	s.uncheckedEnqueue(learnt[0], c)
}

func (s *Solver) budgetExhausted() bool {
	return (s.confBudget >= 0 && s.Stats.Conflicts >= s.confBudget) ||
		(s.propBudget >= 0 && s.Stats.Propagations >= s.propBudget)
}

// Solve decides satisfiability under the given assumptions.
// After Unsat, Core/Failed expose the assumption core; after Sat,
// ModelValue reads the model.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.Stats.SolveCalls++
	s.conflict = s.conflict[:0]
	if !s.okay {
		return Unsat
	}
	// Reset per-call budgets relative to current counters.
	confLimit := int64(-1)
	if s.confBudget >= 0 {
		confLimit = s.Stats.Conflicts + s.confBudget
	}
	propLimit := int64(-1)
	if s.propBudget >= 0 {
		propLimit = s.Stats.Propagations + s.propBudget
	}
	savedConf, savedProp := s.confBudget, s.propBudget
	s.confBudget, s.propBudget = confLimit, propLimit
	defer func() {
		s.confBudget, s.propBudget = savedConf, savedProp
		s.cancelUntil(0)
	}()

	status := Unknown
	s.lubyIdx = 0
	for status == Unknown {
		restartLen := int64(-1)
		if s.cfg.Restart == RestartLuby {
			restartLen = int64(luby(float64(s.cfg.LubyBase), s.lubyIdx))
			s.lubyIdx++
		}
		s.Stats.Starts++
		status = s.searchGuarded(restartLen, assumptions)
		if (s.budgetExhausted() || s.interrupted.Load()) && status == Unknown {
			break
		}
	}
	return status
}

func (s *Solver) searchGuarded(nofConflicts int64, assumptions []Lit) Status {
	st := s.search(nofConflicts, assumptions)
	if st == Unknown {
		// Restart: drop decisions but keep learnt clauses.
		s.cancelUntil(0)
	}
	return st
}

// Simplify removes clauses satisfied at the top level. It may only be
// called at decision level 0.
func (s *Solver) Simplify() bool {
	if !s.okay {
		return false
	}
	if s.propagate() != CRefUndef {
		s.okay = false
		return false
	}
	s.clauses = s.simplifyList(s.clauses)
	s.coreLearnts = s.simplifyList(s.coreLearnts)
	s.learnts = s.simplifyList(s.learnts)
	s.maybeGC()
	return true
}

func (s *Solver) simplifyList(cs []CRef) []CRef {
	j := 0
	for _, c := range cs {
		satisfied := false
		for _, l := range s.ca.lits(c) {
			if s.LitValue(l) == LTrue {
				satisfied = true
				break
			}
		}
		if satisfied && s.reason[s.ca.lit(c, 0).Var()] != c {
			s.detachClause(c)
			s.ca.free(c)
			continue
		}
		cs[j] = c
		j++
	}
	return cs[:j]
}
