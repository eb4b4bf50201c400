package cec

import (
	"math/rand"

	"ecopatch/internal/aig"
	"ecopatch/internal/cnf"
	"ecopatch/internal/sat"
	"ecopatch/internal/sim"
)

// SweepOptions tunes the SAT sweeping (fraiging) pass.
type SweepOptions struct {
	// SimRounds is the number of 64-pattern random simulation rounds
	// used to build the initial candidate equivalence classes.
	SimRounds int
	// MaxConflicts bounds SAT conflicts per equivalence query; proofs
	// that exceed it leave the pair unmerged (sound, just weaker).
	MaxConflicts int64
	// MaxCandidates bounds how many same-class representatives each
	// node is compared against.
	MaxCandidates int
	// Seed makes the simulation deterministic.
	Seed int64
	// OnSolver, when non-nil, observes the sweep's one SAT solver so a
	// caller can Interrupt it. An interrupted sweep stops proving: the
	// nodes it has not reached yet are copied unmerged.
	OnSolver func(*sat.Solver)
}

// DefaultSweepOptions returns sensible defaults.
func DefaultSweepOptions() SweepOptions {
	return SweepOptions{SimRounds: 8, MaxConflicts: 2000, MaxCandidates: 4, Seed: 1}
}

// PairChecker proves pointwise equivalences between edges of one AIG
// using a single incremental SAT solver. Each query encodes only the
// new cone logic, adds two selector-guarded difference clauses, and
// solves under the selector assumption; afterwards the selector is
// retired with a unit clause, so learnt clauses and variable
// activities carry over to the next pair instead of being rebuilt
// from scratch per query (the classic incremental-fraiging setup).
type PairChecker struct {
	g   *aig.AIG
	s   *sat.Solver
	enc *cnf.Encoder
}

// NewPairChecker builds a checker over g. The graph may keep growing
// (new nodes are encoded on demand) as long as PIs are added before
// any pair over them is checked. opt.MaxConflicts bounds conflicts per
// query; opt.OnSolver observes the one solver for interruption.
func NewPairChecker(g *aig.AIG, opt CheckOptions) *PairChecker {
	s := sat.New()
	if opt.MaxConflicts > 0 {
		s.SetConfBudget(opt.MaxConflicts)
	}
	if opt.OnSolver != nil {
		opt.OnSolver(s)
	}
	return &PairChecker{g: g, s: s, enc: cnf.NewEncoder(s, g)}
}

// Solver exposes the underlying solver (e.g. for stats readout).
func (pc *PairChecker) Solver() *sat.Solver { return pc.s }

// Reset re-arms a checker whose solver was interrupted so it can be
// reused for a fresh batch of queries. An Interrupt is sticky by
// design — within one run callers treat it as a termination signal
// (see the engine's deadline watcher) — so a pooled checker handed
// from a cancelled job to a new one would otherwise answer ErrGaveUp
// forever. Clause state survives: learnt clauses and encoded cones
// stay valid because CheckPair retires its selector even on an
// interrupted query.
func (pc *PairChecker) Reset() { pc.s.ClearInterrupt() }

// CheckPair decides whether edges a and b compute the same function of
// the graph's PIs. On disequality cex holds PI values (indexed by PI
// position) exposing the difference. err is ErrGaveUp when the
// conflict budget ran out or the solver was interrupted — the pair is
// then simply unresolved.
func (pc *PairChecker) CheckPair(a, b aig.Lit) (equal bool, cex []bool, err error) {
	if a == b {
		return true, nil, nil
	}
	if a == b.Not() {
		return false, nil, nil
	}
	la, lb := pc.enc.Lit(a), pc.enc.Lit(b)
	d := sat.PosLit(pc.s.NewVar())
	// d -> (a != b)
	pc.s.AddClause(d.Not(), la, lb)
	pc.s.AddClause(d.Not(), la.Not(), lb.Not())
	st := pc.s.Solve(d)
	if st == sat.Sat {
		cex = make([]bool, pc.g.NumPIs())
		for i := range cex {
			cex[i] = pc.s.ModelBool(pc.enc.Lit(pc.g.PI(i)))
		}
	}
	// Retire the selector so the guard clauses become satisfied and
	// reclaimable; future queries use fresh selectors.
	pc.s.AddClause(d.Not())
	switch st {
	case sat.Unsat:
		return true, nil, nil
	case sat.Sat:
		return false, cex, nil
	default:
		return false, nil, ErrGaveUp
	}
}

// Sweep functionally reduces the AIG (fraiging, the core of the
// paper's CEC reference [12]): candidate equivalences are proposed by
// random simulation and proved by incremental SAT; proven-equivalent
// nodes merge (up to complementation), functionally constant nodes
// merge into the constant. Counterexamples from failed proofs refine
// the candidate classes. The result is functionally equivalent to the
// input, with the same PI/PO interface.
func Sweep(g *aig.AIG, opt SweepOptions) *aig.AIG {
	ng, _ := sweep(g, opt)
	return ng
}

// sweepStats is the SAT work of one sweep: conflicts spent on its
// proofs, and whether its solver was interrupted.
type sweepStats struct {
	conflicts   int64
	interrupted bool
}

// sweep is Sweep reporting its SAT work.
func sweep(g *aig.AIG, opt SweepOptions) (*aig.AIG, sweepStats) {
	if opt.SimRounds <= 0 {
		opt.SimRounds = 8
	}
	if opt.MaxCandidates <= 0 {
		opt.MaxCandidates = 4
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Signatures over the ORIGINAL graph.
	sigs := make([][]uint64, g.NumNodes())
	for i := range sigs {
		sigs[i] = make([]uint64, 0, opt.SimRounds+4)
	}
	var keyed []bool            // declared with the memo below; cleared per round
	simr := aig.NewSimulator(g) // reused word buffer across rounds
	addRound := func(piWords []uint64) {
		words := simr.Run(piWords)
		for n := range sigs {
			sigs[n] = append(sigs[n], words[n])
		}
		for n := range keyed {
			keyed[n] = false
		}
	}
	for r := 0; r < opt.SimRounds; r++ {
		addRound(g.RandomSimWords(rng))
	}

	// Canonical keys are memoized per simulation epoch: the main loop,
	// PI registration, and every flushCex rebuild look keys up far more
	// often than signatures change, and each canonKey call is an
	// O(rounds) fold. A new simulation round invalidates every memo.
	keys := make([]uint64, g.NumNodes())
	compls := make([]bool, g.NumNodes())
	keyed = make([]bool, g.NumNodes())
	canon := func(n int) (uint64, bool) {
		if !keyed[n] {
			keys[n], compls[n] = sim.CanonKey(sigs[n])
			keyed[n] = true
		}
		return keys[n], compls[n]
	}
	sameCanonSig := func(a, b int) bool { return sim.CanonEqual(sigs[a], sigs[b]) }

	ng := aig.New()
	checker := NewPairChecker(ng, CheckOptions{MaxConflicts: opt.MaxConflicts, OnSolver: opt.OnSolver})

	mapped := make([]aig.Lit, g.NumNodes())
	mapped[0] = aig.ConstFalse
	for i := 0; i < g.NumPIs(); i++ {
		mapped[g.PI(i).Node()] = ng.AddPI(g.PIName(i))
	}

	// classes maps canonical-signature hash -> candidates. Buckets may
	// mix true classmates with hash collisions; node keeps the old
	// graph's id so probes verify the full signature first.
	type rep struct {
		edge  aig.Lit // ng edge of the representative's value
		node  int     // old-graph node, for collision checking
		compl bool    // representative stored with canonical polarity
	}
	classes := make(map[uint64][]rep)
	register := func(n int) {
		k, compl := canon(n)
		classes[k] = append(classes[k], rep{edge: mapped[n].XorCompl(compl), node: n, compl: compl})
	}
	// The constant and the PIs seed the classes; the constant comes
	// first so a functionally constant node probes it before any
	// same-signature PI or AND.
	registerSources := func() {
		register(0)
		for i := 0; i < g.NumPIs(); i++ {
			register(g.PI(i).Node())
		}
	}
	registerSources()

	// cexBuf accumulates counterexample patterns to refine classes;
	// builtAnds remembers processed nodes so classes can be rebuilt on
	// the extended signatures after a refinement round.
	cexBuf := make([][]bool, 0, 64)
	var builtAnds []int
	flushCex := func() {
		if len(cexBuf) == 0 {
			return
		}
		piWords := make([]uint64, g.NumPIs())
		for b, cx := range cexBuf {
			for i := range piWords {
				if cx[i] {
					piWords[i] |= 1 << uint(b)
				}
			}
		}
		addRound(piWords)
		cexBuf = cexBuf[:0]
		classes = make(map[uint64][]rep)
		registerSources()
		for _, n := range builtAnds {
			register(n)
		}
	}

	proveEqual := func(a, b aig.Lit) (equal bool, cex []bool) {
		// A gave-up query (budget exhausted or interrupted) leaves the
		// pair unmerged, which is sound, just weaker. Once interrupted
		// the solver answers nothing, so stop encoding cones for it.
		if checker.s.Interrupted() {
			return false, nil
		}
		equal, cex, _ = checker.CheckPair(a, b)
		return equal, cex
	}

	roots := make([]aig.Lit, g.NumPOs())
	for i := range roots {
		roots[i] = g.PO(i)
	}
	for _, n := range g.ConeNodes(roots) {
		if !g.IsAnd(n) {
			continue
		}
		f0, f1 := g.Fanins(n)
		a := mapped[f0.Node()].XorCompl(f0.Compl())
		b := mapped[f1.Node()].XorCompl(f1.Compl())
		me := ng.And(a, b)
		k, compl := canon(n)
		myCanon := me.XorCompl(compl)
		merged := false
		probes := 0
		for _, cand := range classes[k] {
			if probes == opt.MaxCandidates {
				break
			}
			// Hash buckets may hold colliding signatures; only true
			// signature matches cost a SAT probe (or budget).
			if !sameCanonSig(n, cand.node) {
				continue
			}
			probes++
			equal, cex := proveEqual(myCanon, cand.edge)
			if equal {
				mapped[n] = cand.edge.XorCompl(compl)
				merged = true
				break
			}
			if cex != nil {
				cexBuf = append(cexBuf, cex)
				if len(cexBuf) == 64 {
					flushCex()
					// Keys changed; stop probing this class.
					k, compl = canon(n)
					myCanon = me.XorCompl(compl)
					break
				}
			}
		}
		if !merged {
			mapped[n] = me
			classes[k] = append(classes[k], rep{edge: myCanon, node: n, compl: compl})
			builtAnds = append(builtAnds, n)
		}
	}

	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		ng.AddPO(g.POName(i), mapped[po.Node()].XorCompl(po.Compl()))
	}
	st := sweepStats{conflicts: checker.s.Stats.Conflicts, interrupted: checker.s.Interrupted()}
	return aig.Cleanup(ng), st
}
