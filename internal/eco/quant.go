package eco

import (
	"ecopatch/internal/aig"
	"ecopatch/internal/qbf"
)

// selfPIMap returns the identity PI map of the working AIG.
func (e *engine) selfPIMap() []aig.Lit {
	m := make([]aig.Lit, e.w.NumPIs())
	for i := range m {
		m[i] = e.w.PI(i)
	}
	return m
}

// checkFeasible decides expression (1) with the 2QBF CEGAR of §3.2:
// the target set is sufficient iff ∃x ∀t M(t,x) is false.
// SolveContext calls it before the Theorem-1 sequence only when its
// countermoves (e.moves) will guide quantification, and otherwise only
// after a failed verification, since a verified patch certifies
// feasibility by itself. decided is false when the check gave up, cut
// short by a cancel or past qbf's iteration cap (at least 14 targets):
// per §3.2 the engine then goes on as if feasible, and only a verified
// patch can supply the verdict.
func (e *engine) checkFeasible() (feasible, decided bool) {
	if e.cancelled() { // stage boundary: a cancelled run starts no check
		return false, false
	}
	defer e.group.release(e.group.mark())
	r, err := qbf.Solve(e.w, e.fullMiter, e.xPIs, e.tPIs, qbf.Options{OnSolver: e.group.add})
	if err != nil {
		e.logf("feasibility qbf gave up (%v); assuming feasible", err)
		return false, false
	}
	e.stats.QBFCopies = r.Copies
	e.moves = r.Moves
	if r.Holds {
		e.logf("infeasible: input witness found for ∃x∀t M(t,x)")
	}
	return !r.Holds, true
}

// quantAssignments chooses the cofactor assignments used to
// universally quantify the remaining targets for target i. Full 2^r
// expansion up to MaxQuantExpand; beyond it (unless a retry forces
// full expansion) the distinct projections of the QBF countermoves
// stand in for the full set — the move-guided construction of §3.6.2.
func (e *engine) quantAssignments(remaining []int) ([][]bool, bool) {
	r := len(remaining)
	if r == 0 {
		return [][]bool{nil}, false
	}
	full := func() [][]bool {
		out := make([][]bool, 0, 1<<uint(r))
		for m := 0; m < 1<<uint(r); m++ {
			a := make([]bool, r)
			for j := 0; j < r; j++ {
				a[j] = m>>uint(j)&1 == 1
			}
			out = append(out, a)
		}
		return out
	}
	if r <= e.opt.MaxQuantExpand || e.fullQuantForced || len(e.moves) == 0 {
		return full(), false
	}
	// Project countermoves onto the remaining targets and dedupe.
	seen := make(map[string]bool)
	var out [][]bool
	add := func(a []bool) {
		key := make([]byte, r)
		for j, v := range a {
			if v {
				key[j] = '1'
			} else {
				key[j] = '0'
			}
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, a)
		}
	}
	for _, mv := range e.moves {
		a := make([]bool, r)
		for j, ti := range remaining {
			a[j] = mv[ti]
		}
		add(a)
	}
	// Always include the all-zero and all-one cofactors for a bit of
	// robustness.
	add(make([]bool, r))
	ones := make([]bool, r)
	for j := range ones {
		ones[j] = true
	}
	add(ones)
	return out, true
}

// cofactorMiters builds M_i(0,x) and M_i(1,x) for target i: patches
// already computed are substituted, remaining targets are universally
// quantified (Theorem 1, §3.1).
func (e *engine) cofactorMiters(i int) (m0, m1 aig.Lit) {
	var remaining []int
	for j := range e.targets {
		if j != i && !e.done[j] {
			remaining = append(remaining, j)
		}
	}
	assigns, guided := e.quantAssignments(remaining)
	if guided {
		e.moveGuided = true
	}
	base := e.selfPIMap()
	for j := range e.targets {
		if e.done[j] {
			base[e.tPIs[j]] = e.patches[j]
		}
	}
	mi := aig.ConstTrue
	for _, a := range assigns {
		piMap := append([]aig.Lit(nil), base...)
		for j, ti := range remaining {
			if a[j] {
				piMap[e.tPIs[ti]] = aig.ConstTrue
			} else {
				piMap[e.tPIs[ti]] = aig.ConstFalse
			}
		}
		co := aig.Transfer(e.w, e.w, piMap, []aig.Lit{e.miter})[0]
		mi = e.w.And(mi, co)
		e.stats.MiterCopies++
	}
	// Cofactor on the target itself.
	pm := e.selfPIMap()
	pm[e.tPIs[i]] = aig.ConstFalse
	m0 = aig.Transfer(e.w, e.w, pm, []aig.Lit{mi})[0]
	pm[e.tPIs[i]] = aig.ConstTrue
	m1 = aig.Transfer(e.w, e.w, pm, []aig.Lit{mi})[0]
	return m0, m1
}
