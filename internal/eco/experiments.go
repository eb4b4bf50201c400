package eco

import (
	"fmt"

	"ecopatch/internal/aig"
	"ecopatch/internal/cnf"
	"ecopatch/internal/sat"
)

// MinimizeComparison reports the SAT-call counts of the two support
// minimization strategies on one target (experiment E5: the paper's
// §3.4.1 complexity claim, O(max{log N, M}) bisection calls versus
// the naive O(N) loop).
type MinimizeComparison struct {
	Divisors       int // N: candidate divisors offered
	Kept           int // M: divisors kept by the bisection
	BisectionCalls int // SAT calls made by minimize_assumptions
	LinearCalls    int // SAT calls made by the one-at-a-time loop
	KeptLinear     int
}

// CompareMinimize runs both minimization strategies on the first
// target of the instance and returns their call counts.
func CompareMinimize(inst *Instance) (*MinimizeComparison, error) {
	if err := inst.Check(); err != nil {
		return nil, err
	}
	opt := DefaultOptions()
	e := &engine{inst: inst, opt: opt, res: &Result{}}
	if err := e.setup(); err != nil {
		return nil, err
	}
	feasible, err := e.checkFeasible()
	if err != nil {
		return nil, err
	}
	if !feasible {
		return nil, fmt.Errorf("eco: instance infeasible")
	}
	e.rectifyAllInit()

	m0, m1 := e.cofactorMiters(0)
	s := e.newSolver()
	enc1 := cnf.NewEncoder(s, e.w)
	enc2 := cnf.NewEncoder(s, e.w)
	r1 := enc1.Lit(m0)
	r2 := enc2.Lit(m1)
	divs := e.orderedDivisors()
	auxs := make([]sat.Lit, len(divs))
	for j, d := range divs {
		d1 := enc1.Lit(d.edge)
		d2 := enc2.Lit(d.edge)
		a := sat.PosLit(s.NewVar())
		s.AddClause(a.Not(), d1.Not(), d2)
		s.AddClause(a.Not(), d1, d2.Not())
		auxs[j] = a
	}
	fixed := []sat.Lit{r1, r2}
	if st := s.Solve(append(append([]sat.Lit{}, fixed...), auxs...)...); st != sat.Unsat {
		return nil, fmt.Errorf("eco: expression (2) not UNSAT (%v)", st)
	}

	cmp := &MinimizeComparison{Divisors: len(divs)}
	arr := append([]sat.Lit(nil), auxs...)
	m := &minimizer{s: s, fixed: fixed, calls: &cmp.BisectionCalls}
	kept, err := m.minimize(arr)
	if err != nil {
		return nil, err
	}
	cmp.Kept = kept

	arrLin := append([]sat.Lit(nil), auxs...)
	keptLin, err := minimizeLinear(s, fixed, arrLin, &cmp.LinearCalls)
	if err != nil {
		return nil, err
	}
	cmp.KeptLinear = keptLin
	return cmp, nil
}

// rectifyAllInit resets the per-rectification state without running
// the rectification loop (used by experiment probes).
func (e *engine) rectifyAllInit() {
	k := len(e.targets)
	e.targetPatches = make([]TargetPatch, k)
	e.patchAIGs = make([]*aig.AIG, k)
	e.patches = make([]aig.Lit, k)
	e.done = make([]bool, k)
	e.usedSignals = make(map[string]bool)
	e.oneCopy = nil
	if !e.opt.ForceStructural {
		e.oneCopy = cnf.NewEncoder(e.newSolver(), e.w)
	}
}
