package eco

import (
	"ecopatch/internal/sat"
	"ecopatch/internal/synth"
)

// enumerateCubes computes the patch function as an irredundant prime
// SOP over the selected divisors (§3.5):
//
//	loop:
//	  - find an onset point: a satisfying assignment of the n=0 copy
//	    (a mismatch the patch must fix by producing 1);
//	  - expand its divisor minterm into a prime cube by dropping
//	    literals while the n=1 copy (the offset) stays unreachable —
//	    this is minimize_assumptions again, now over cube literals;
//	  - block the cube in the onset copy and continue.
//
// The equality selectors are left unassumed here, so the two copies
// are independent and the cube check works point-wise. Past the work
// meter's allotment it returns errBudget: the target gets the
// structural patch.
func (e *engine) enumerateCubes(s *sat.Solver, r1, r2 sat.Lit,
	divs []divisor, selected []int, d1s, d2s []sat.Lit) (*synth.SOP, error) {

	sop := synth.NewSOP(len(selected))
	posOfVar := make(map[sat.Var]int, len(selected))
	for pos, j := range selected {
		posOfVar[d2s[j].Var()] = pos
	}
	start := e.group.stats().Propagations // the work meter, see stageAllot
	for {
		if e.group.stats().Propagations-start >= stageAllot {
			return nil, errBudget
		}
		e.stats.SATCalls++
		switch s.Solve(r1) {
		case sat.Unsat:
			return sop, nil
		case sat.Unknown:
			return nil, errBudget
		}
		// Read the divisor minterm of the onset point.
		cubeLits := make([]sat.Lit, len(selected))
		for pos, j := range selected {
			v := s.ModelBool(d1s[j])
			cubeLits[pos] = d2s[j].XorSign(!v)
		}
		// Expand to a prime cube against the offset copy.
		// No bank here: cube blocking has started adding clauses, so
		// banked models are no longer trustworthy (see satPatchWith).
		m := &minimizer{s: s, fixed: []sat.Lit{r2}, calls: &e.stats.MinimizeCalls,
			satCalls: &e.stats.SATCalls}
		kept, err := m.minimize(cubeLits)
		if err != nil {
			return nil, err
		}
		cube := synth.NewCube(len(selected))
		for _, l := range cubeLits[:kept] {
			pos := posOfVar[l.Var()]
			// The divisor's value polarity, not the raw SAT-literal
			// sign: d2s[j] is the literal meaning "divisor is true"
			// and may itself be negated (complemented AIG edge).
			if l == d2s[selected[pos]] {
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
