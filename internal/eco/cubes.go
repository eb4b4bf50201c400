package eco

import (
	"ecopatch/internal/aig"
	"ecopatch/internal/cnf"
	"ecopatch/internal/sat"
	"ecopatch/internal/sim"
	"ecopatch/internal/synth"
)

// offsetBankHook, when non-nil, wraps the model bank that answers
// cube-expansion probes on the offset solver. Only tests set it, to
// re-check or silence the bank (TestOffsetBankSound).
var offsetBankHook func(off *sat.Solver, b *sim.ModelBank) modelFinder

// enumerateCubes computes the patch function as an irredundant prime
// SOP over the selected divisors (§3.5):
//
//	loop:
//	  - find an onset point: a satisfying assignment of the n=0 copy
//	    on the two-copy solver s (a mismatch the patch must fix by
//	    producing 1);
//	  - expand its divisor minterm into a prime cube by dropping
//	    literals while the offset M(1,x) stays unreachable — this is
//	    minimize_assumptions again, now over cube literals;
//	  - block the cube in the onset copy and continue.
//
// Expansion never reads the onset copy, so its probes go to a fresh
// offset solver that encodes only m1 and the selected divisors. That
// solver only ever receives definitional clauses, so every model it
// returns stays a model, and a bank of those models answers later
// probes without the solver. The onset search stays on s, whose learnt
// clauses from the sufficiency proof and support selection shorten the
// final "onset exhausted" proof. Past the work meter's patch allotment
// it returns errBudget: the target gets the structural patch.
func (e *engine) enumerateCubes(s *sat.Solver, r1 sat.Lit, m1 aig.Lit,
	divs []divisor, selected []int, d1s []sat.Lit) (*synth.SOP, error) {

	off := cnf.NewEncoder(e.newSolver(), e.w)
	r2 := off.Lit(m1)
	// d2s[pos] is the offset literal meaning "divisor selected[pos] is
	// true"; it may itself be negated (complemented AIG edge).
	d2s := make([]sat.Lit, len(selected))
	posOfVar := make(map[sat.Var]int, len(selected))
	for pos, j := range selected {
		d2s[pos] = off.Lit(divs[j].edge)
		posOfVar[d2s[pos].Var()] = pos
	}
	bank := sim.NewModelBank(append([]sat.Lit{r2}, d2s...), simModelBankMax)
	m := &minimizer{s: off.S, fixed: []sat.Lit{r2}, calls: &e.stats.MinimizeCalls,
		satCalls: &e.stats.SATCalls, bank: bank, elided: &e.stats.SimElided,
		onSat: func() {
			if bank.Add(off.S) {
				e.stats.SimPatterns++
			}
		}}
	if offsetBankHook != nil {
		m.bank = offsetBankHook(off.S, bank)
	}

	sop := synth.NewSOP(len(selected))
	start := e.group.stats().Propagations // the work meter, see stageAllot
	for {
		if e.group.stats().Propagations-start >= stageAllot.patch {
			return nil, errBudget
		}
		e.stats.SATCalls++
		switch s.Solve(r1) {
		case sat.Unsat:
			return sop, nil
		case sat.Unknown:
			return nil, errCancelled
		}
		// Read the divisor minterm of the onset point.
		cubeLits := make([]sat.Lit, len(selected))
		for pos, j := range selected {
			cubeLits[pos] = d2s[pos].XorSign(!s.ModelBool(d1s[j]))
		}
		// Expand to a prime cube against the offset.
		kept, err := m.minimize(cubeLits)
		if err != nil {
			return nil, err
		}
		cube := synth.NewCube(len(selected))
		for _, l := range cubeLits[:kept] {
			pos := posOfVar[l.Var()]
			if l == d2s[pos] {
				cube[pos] = synth.Pos
			} else {
				cube[pos] = synth.Neg
			}
		}
		sop.AddCube(cube)
		e.stats.CubesEnumerated++
		// Block the cube in the onset copy.
		var block []sat.Lit
		for pos, p := range cube {
			j := selected[pos]
			switch p {
			case synth.Pos:
				block = append(block, d1s[j].Not())
			case synth.Neg:
				block = append(block, d1s[j])
			}
		}
		// An empty block means the universal cube: the patch is
		// constant true and the onset copy is exhausted.
		if !s.AddClause(block...) {
			return sop, nil
		}
	}
}
