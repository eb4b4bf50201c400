package eco

import (
	"fmt"

	"ecopatch/internal/aig"
	"ecopatch/internal/cnf"
	"ecopatch/internal/itp"
	"ecopatch/internal/sat"
)

// interpolatePatch computes the patch function as a Craig interpolant
// of expression (3) — the prior-work [15] method the paper's cube
// enumeration replaces. Partition A is the onset copy (M_i(0,x1) with
// the divisor relation), partition B the offset copy plus the
// equalities binding the shared divisor variables; the McMillan
// interpolant is then a circuit over the divisors.
func (e *engine) interpolatePatch(m0, m1 aig.Lit, divs []divisor, selected []int) (*aig.AIG, error) {
	s := e.newSolver()
	proof := s.StartProof()
	// Partition A: onset copy.
	encA := cnf.NewEncoder(s, e.w)
	rA := encA.Lit(m0)
	dA := make([]sat.Lit, len(selected))
	for jj, j := range selected {
		dA[jj] = encA.Lit(divs[j].edge)
	}
	if !s.AddClause(rA) {
		// Onset empty: the patch is constant false.
		return constPatch(false), nil
	}
	// Partition B: offset copy plus equalities.
	proof.BeginB()
	encB := cnf.NewEncoder(s, e.w)
	rB := encB.Lit(m1)
	ok := s.AddClause(rB)
	for jj, j := range selected {
		if !ok {
			break
		}
		dB := encB.Lit(divs[j].edge)
		ok = s.AddClause(dA[jj].Not(), dB) && s.AddClause(dA[jj], dB.Not())
	}
	if ok {
		switch s.Solve() {
		case sat.Sat:
			return nil, fmt.Errorf("eco: interpolation instance unexpectedly SAT")
		case sat.Unknown:
			return nil, errCancelled
		case sat.Unsat:
			// Expected: the refutation proof feeds the interpolant.
		}
	}
	patch := aig.New()
	varEdge := make(map[sat.Var]aig.Lit, len(selected))
	for jj, j := range selected {
		pi := patch.AddPI(divs[j].name)
		// dA[jj] is the literal whose value equals the signal value;
		// express the underlying variable in terms of the PI.
		varEdge[dA[jj].Var()] = pi.XorCompl(dA[jj].Sign())
	}
	root, err := itp.Interpolant(proof, patch, varEdge)
	if err != nil {
		return nil, err
	}
	patch.AddPO("patch", root)
	return patch, nil
}

func constPatch(v bool) *aig.AIG {
	g := aig.New()
	if v {
		g.AddPO("patch", aig.ConstTrue)
	} else {
		g.AddPO("patch", aig.ConstFalse)
	}
	return g
}
