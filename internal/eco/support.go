package eco

import "ecopatch/internal/sat"

// minimizer implements procedure minimize_assumptions (Algorithm 1 of
// the paper): given a formula UNSAT under fixed ∪ A, it permutes A in
// place so that a minimal prefix of A keeps the formula UNSAT, and
// returns that prefix length. The recursion bisects A, giving
// O(max{log N, M}) SAT calls for N assumptions and M kept — versus
// O(N) for the naive one-at-a-time loop (see minimizeLinear).
//
// Because callers pass A in ascending cost order, the minimality is
// cost-aware: a kept assumption cannot be replaced by a cheaper one
// earlier in the order (the LEXUNSAT property the paper cites).
type minimizer struct {
	s     *sat.Solver
	fixed []sat.Lit
	calls *int

	// satCalls, when non-nil, also counts each query toward the
	// engine-wide Stats.SATCalls total (see its invariant).
	satCalls *int64
	// bank, when non-nil, elides solver work: minimize only assumes
	// literals, never adds clauses, so a banked model satisfying the
	// whole assumption set answers Sat exactly. elided counts the hits;
	// onSat (if set) runs after each real solver Sat so the caller can
	// bank the fresh model.
	bank   modelFinder
	elided *int64
	onSat  func()

	// scratch is the assumption buffer reused across solve calls:
	// minimize issues O(log N + M) SAT queries and allocating a fresh
	// slice per query is measurable garbage on Algorithm 1's hot loop.
	scratch []sat.Lit
}

// modelFinder answers an assumption set from stored models: Find
// returns the index of a model satisfying every literal, or -1.
// *sim.ModelBank is the one in use; tests wrap it.
type modelFinder interface {
	Find(assumps []sat.Lit) int
}

func (m *minimizer) solve(extra []sat.Lit) (sat.Status, error) {
	if m.calls != nil {
		*m.calls++
	}
	if m.satCalls != nil {
		*m.satCalls++
	}
	assumps := append(m.scratch[:0], m.fixed...)
	assumps = append(assumps, extra...)
	m.scratch = assumps
	if m.bank != nil && m.bank.Find(assumps) >= 0 {
		*m.elided++
		return sat.Sat, nil
	}
	st := m.s.Solve(assumps...)
	if st == sat.Unknown {
		return st, errBudget
	}
	if st == sat.Sat && m.onSat != nil {
		m.onSat()
	}
	return st, nil
}

// minimize reduces A (permuting it) and returns the kept prefix size.
func (m *minimizer) minimize(A []sat.Lit) (int, error) {
	if len(A) == 0 {
		return 0, nil
	}
	if len(A) == 1 {
		// Is the assumption needed at all?
		st, err := m.solve(nil)
		if err != nil {
			return 0, err
		}
		if st == sat.Unsat {
			return 0, nil
		}
		return 1, nil
	}
	mid := (len(A) + 1) / 2
	low, high := A[:mid], A[mid:]

	// Try the lower half alone.
	st, err := m.solve(low)
	if err != nil {
		return 0, err
	}
	if st == sat.Unsat {
		return m.minimize(low)
	}

	// Minimize the higher half while assuming all of the lower half.
	savedLen := len(m.fixed)
	m.fixed = append(m.fixed, low...)
	sHigh, err := m.minimize(high)
	m.fixed = m.fixed[:savedLen]
	if err != nil {
		return 0, err
	}

	// Reorder: selected high entries first, then the lower half.
	newA := make([]sat.Lit, 0, len(A))
	newA = append(newA, high[:sHigh]...)
	newA = append(newA, low...)
	newA = append(newA, high[sHigh:]...)
	copy(A, newA)

	// Minimize the lower half while assuming the selected high part.
	m.fixed = append(m.fixed, A[:sHigh]...)
	sLow, err := m.minimize(A[sHigh : sHigh+len(low)])
	m.fixed = m.fixed[:savedLen]
	if err != nil {
		return 0, err
	}
	return sHigh + sLow, nil
}

// minimizeLinear is the naive O(N) comparison point (experiment E5):
// walk the assumptions once, dropping each that is unnecessary given
// the current partial selection and the untested tail.
func minimizeLinear(s *sat.Solver, fixed []sat.Lit, A []sat.Lit, calls *int) (int, error) {
	kept := 0
	scratch := make([]sat.Lit, 0, len(fixed)+len(A))
	for i := 0; i < len(A); i++ {
		// Assume everything kept so far plus the untouched tail,
		// skipping A[i].
		assumps := append(scratch[:0], fixed...)
		assumps = append(assumps, A[:kept]...)
		assumps = append(assumps, A[i+1:]...)
		if calls != nil {
			*calls++
		}
		switch s.Solve(assumps...) {
		case sat.Unsat:
			// A[i] unnecessary: drop it.
		case sat.Sat:
			A[kept] = A[i]
			kept++
		case sat.Unknown:
			return 0, errBudget
		}
	}
	return kept, nil
}
