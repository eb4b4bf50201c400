// Package cec implements SAT-based combinational equivalence checking
// (the "CEC" step of the paper, used both to validate that a target
// set is sufficient — §3.2 — and to verify the final patched
// implementation against the specification).
package cec

import (
	"errors"
	"fmt"

	"ecopatch/internal/aig"
	"ecopatch/internal/cnf"
	"ecopatch/internal/sat"
)

// ErrGaveUp reports that the check was aborted — by a conflict budget
// or an Interrupt — before reaching a verdict. Callers that can live
// with an unknown answer should test for it with errors.Is.
var ErrGaveUp = errors.New("cec: solver gave up")

// CheckOptions tunes a single equivalence check.
type CheckOptions struct {
	// MaxConflicts bounds SAT conflicts (<=0 means unlimited); an
	// exceeded budget surfaces as ErrGaveUp. An unbudgeted check must
	// reach a verdict, so it fraigs the miter first (Sweep over the
	// differing cones) and solves only the pairs the sweep could not
	// merge; a budgeted probe solves directly.
	MaxConflicts int64
	// OnSolver, when non-nil, observes every SAT solver the check
	// creates, so callers can Interrupt a long-running check from
	// another goroutine.
	OnSolver func(*sat.Solver)
}

// Result reports the outcome of an equivalence check.
type Result struct {
	Equivalent bool
	// Counterexample holds PI values exposing a difference when
	// Equivalent is false.
	Counterexample []bool
	// FailingOutput is the index of a differing output.
	FailingOutput int
	// Conflicts is the number of SAT conflicts spent.
	Conflicts int64
}

// CheckAIGs decides whether two AIGs with identical PI/PO counts are
// combinationally equivalent. PIs are matched by position. The miter
// is fraiged before the final SAT query (see CheckOptions.MaxConflicts).
func CheckAIGs(g1, g2 *aig.AIG) (Result, error) {
	if g1.NumPIs() != g2.NumPIs() {
		return Result{}, fmt.Errorf("cec: PI count mismatch: %d vs %d", g1.NumPIs(), g2.NumPIs())
	}
	if g1.NumPOs() != g2.NumPOs() {
		return Result{}, fmt.Errorf("cec: PO count mismatch: %d vs %d", g1.NumPOs(), g2.NumPOs())
	}
	// Build the miter in a fresh AIG: shared PIs, XOR per output pair.
	m := aig.New()
	piMap := make([]aig.Lit, g1.NumPIs())
	for i := range piMap {
		piMap[i] = m.AddPI(g1.PIName(i))
	}
	outs1 := make([]aig.Lit, g1.NumPOs())
	outs2 := make([]aig.Lit, g2.NumPOs())
	for i := 0; i < g1.NumPOs(); i++ {
		outs1[i] = g1.PO(i)
		outs2[i] = g2.PO(i)
	}
	t1 := aig.Transfer(m, g1, piMap, outs1)
	t2 := aig.Transfer(m, g2, piMap, outs2)
	return checkPairs(m, piMap, t1, t2, CheckOptions{})
}

// CheckLits decides whether pairs of edges within one AIG are
// pointwise equivalent (as functions of the AIG's PIs).
func CheckLits(g *aig.AIG, as, bs []aig.Lit) (Result, error) {
	return CheckLitsOpt(g, as, bs, CheckOptions{})
}

// CheckLitsOpt is CheckLits with explicit budget/interrupt options.
func CheckLitsOpt(g *aig.AIG, as, bs []aig.Lit, opt CheckOptions) (Result, error) {
	if len(as) != len(bs) {
		return Result{}, fmt.Errorf("cec: pair count mismatch")
	}
	pis := make([]aig.Lit, g.NumPIs())
	for i := range pis {
		pis[i] = g.PI(i)
	}
	return checkPairs(g, pis, as, bs, opt)
}

// checkPairs runs the SAT check "some pair differs" on a miter AIG.
// A check that must reach a verdict (no conflict budget) fraigs the
// miter first, so only the pairs the sweep could not merge reach the
// final query; budgeted probes solve directly.
func checkPairs(m *aig.AIG, pis []aig.Lit, t1, t2 []aig.Lit, opt CheckOptions) (Result, error) {
	// Fast path: structural hashing may already have merged each pair.
	diff := differingPairs(t1, t2)
	if len(diff) == 0 {
		return Result{Equivalent: true}, nil
	}
	var swept int64
	if opt.MaxConflicts <= 0 {
		var st sweepStats
		m, pis, t1, t2, st = sweepMiter(m, t1, t2, diff, opt.OnSolver)
		swept = st.conflicts
		if st.interrupted {
			return Result{}, ErrGaveUp
		}
		diff = differingPairs(t1, t2)
		if len(diff) == 0 {
			return Result{Equivalent: true, Conflicts: swept}, nil
		}
	}
	res, err := solvePairs(m, pis, t1, t2, diff, opt)
	res.Conflicts += swept
	return res, err
}

// differingPairs lists the indices of the pairs whose edges differ.
func differingPairs(t1, t2 []aig.Lit) []int {
	var diff []int
	for i := range t1 {
		if t1[i] != t2[i] {
			diff = append(diff, i)
		}
	}
	return diff
}

// sweepMiter extracts the cones of the differing pairs and fraigs them
// (Sweep), so SAT-proven internal equivalences merge before the final
// query. Pairs outside diff are equal already and come back as the
// constant on both sides; every pair keeps its index, so readback and
// the failing-output scan run unchanged on the swept graph.
func sweepMiter(m *aig.AIG, t1, t2 []aig.Lit, diff []int, onSolver func(*sat.Solver)) (*aig.AIG, []aig.Lit, []aig.Lit, []aig.Lit, sweepStats) {
	d1 := make([]aig.Lit, len(diff))
	d2 := make([]aig.Lit, len(diff))
	for k, i := range diff {
		d1[k], d2[k] = t1[i], t2[i]
	}
	opt := DefaultSweepOptions()
	opt.OnSolver = onSolver
	sg, st := sweep(extractPairs(m, d1, d2), opt)
	pis, s1, s2 := readPairs(sg, len(diff))
	nt1 := make([]aig.Lit, len(t1))
	nt2 := make([]aig.Lit, len(t2))
	for k, i := range diff {
		nt1[i], nt2[i] = s1[k], s2[k]
	}
	return sg, pis, nt1, nt2, st
}

// extractPairs copies the cones of the pair edges into a fresh graph
// with m's PI interface (count, order, names), so counterexamples stay
// indexed by PI position. The POs are t1 then t2, in order.
func extractPairs(m *aig.AIG, t1, t2 []aig.Lit) *aig.AIG {
	g := aig.New()
	piMap := make([]aig.Lit, m.NumPIs())
	for i := range piMap {
		piMap[i] = g.AddPI(m.PIName(i))
	}
	roots := make([]aig.Lit, 0, len(t1)+len(t2))
	roots = append(roots, t1...)
	roots = append(roots, t2...)
	for _, r := range aig.Transfer(g, m, piMap, roots) {
		g.AddPO("t", r)
	}
	return g
}

// readPairs reads n pairs back from the POs of an extractPairs graph
// (or of a pass that keeps its POs in order), with the graph's own PI
// list.
func readPairs(g *aig.AIG, n int) (pis, t1, t2 []aig.Lit) {
	pis = make([]aig.Lit, g.NumPIs())
	for i := range pis {
		pis[i] = g.PI(i)
	}
	t1 = make([]aig.Lit, n)
	t2 = make([]aig.Lit, n)
	for i := 0; i < n; i++ {
		t1[i], t2[i] = g.PO(i), g.PO(n+i)
	}
	return pis, t1, t2
}

// encodePairDiff Tseitin-encodes "some pair in idx differs" into s —
// PIs first, so counterexample readback never allocates variables
// after solving — and returns the PI literals.
func encodePairDiff(s *sat.Solver, m *aig.AIG, pis []aig.Lit, t1, t2 []aig.Lit, idx []int) []sat.Lit {
	e := cnf.NewEncoder(s, m)
	piLits := make([]sat.Lit, len(pis))
	for i, p := range pis {
		piLits[i] = e.Lit(p)
	}
	// diff = OR over XORs; assert diff.
	diffSel := make([]sat.Lit, 0, len(idx))
	for _, i := range idx {
		a := e.Lit(t1[i])
		b := e.Lit(t2[i])
		d := sat.PosLit(s.NewVar())
		// d -> (a xor b)
		s.AddClause(d.Not(), a, b)
		s.AddClause(d.Not(), a.Not(), b.Not())
		// (a xor b) -> d
		s.AddClause(d, a, b.Not())
		s.AddClause(d, a.Not(), b)
		diffSel = append(diffSel, d)
	}
	s.AddClause(diffSel...)
	return piLits
}

// solvePairs decides "some pair in diff differs" with one solver and
// encoder; the counterexample is indexed by PI position. Sat is a
// counterexample, Unsat means equivalent, and Unknown (budget exhausted
// or interrupted) is no verdict either way.
func solvePairs(m *aig.AIG, pis []aig.Lit, t1, t2 []aig.Lit, diff []int, opt CheckOptions) (Result, error) {
	s := sat.New()
	if opt.MaxConflicts > 0 {
		s.SetConfBudget(opt.MaxConflicts)
	}
	if opt.OnSolver != nil {
		opt.OnSolver(s)
	}
	piLits := encodePairDiff(s, m, pis, t1, t2, diff)
	switch s.Solve() {
	case sat.Sat:
		cex := make([]bool, len(pis))
		for i := range pis {
			cex[i] = s.ModelBool(piLits[i])
		}
		res := Result{Counterexample: cex, FailingOutput: -1, Conflicts: s.Stats.Conflicts}
		// Identify a failing output index by evaluation, scanning the
		// full pair list so the lowest failing index is reported. One
		// Eval pass covers every pair; per-pair EvalLit would redo the
		// O(nodes) walk (and its allocation) for each output.
		ev := aig.NewEvaluator(m)
		ev.Eval(cex)
		for i := range t1 {
			if ev.Lit(t1[i]) != ev.Lit(t2[i]) {
				res.FailingOutput = i
				break
			}
		}
		return res, nil
	case sat.Unsat:
		return Result{Equivalent: true, Conflicts: s.Stats.Conflicts}, nil
	default:
		return Result{}, ErrGaveUp
	}
}
