// Package qbf implements a CEGAR solver for 2QBF formulas of the form
// ∃x ∀t φ(t, x), the shape of the ECO feasibility question
// (expression (1) of the paper: ECO is impossible iff ∃x ∀t M(t,x)).
//
// The solver is the classical expansion-based CEGAR: an existential
// solver proposes x over a growing conjunction ∧_i φ(t^i, x) of
// cofactor copies; a universal solver looks for a countermove t*
// falsifying φ(t, x*); each countermove adds one more copy. When the
// existential side becomes UNSAT, the collected countermoves certify
// that no x works — and double as the certificate the ECO engine uses
// for move-guided structural patches (§3.6.2), where they replace the
// full 2^k cofactor expansion.
package qbf

import (
	"fmt"

	"ecopatch/internal/aig"
	"ecopatch/internal/cnf"
	"ecopatch/internal/sat"
)

// Result is the outcome of a 2QBF solve.
type Result struct {
	// Holds reports whether ∃x ∀t φ(t,x) is true.
	Holds bool
	// Witness is an x assignment proving Holds (indexed like xPIs).
	Witness []bool
	// Moves are the countermoves t^i collected during CEGAR (indexed
	// like tPIs). When Holds is false they certify the refutation:
	// for every x some move falsifies φ.
	Moves [][]bool
	// Copies is the number of φ-copies in the final expansion — the
	// "number of ECO miter copies" metric of §3.6.2.
	Copies int
	// Iterations is the number of CEGAR rounds executed.
	Iterations int
}

// maxIterations bounds the CEGAR rounds of one Solve. Each round adds
// a distinct countermove, so only formulas with at least 14 universal
// variables can reach it.
const maxIterations = 10000

// Options controls the CEGAR loop.
type Options struct {
	// OnSolver, when non-nil, observes the SAT solvers the CEGAR loop
	// creates, so callers can Interrupt a long-running solve from
	// another goroutine.
	OnSolver func(*sat.Solver)
}

// Solve decides ∃x ∀t φ(t,x). The formula is the AIG edge root of g;
// xPIs and tPIs partition (a subset of) g's PI positions. PIs in
// neither list are treated as existential (grouped with x). It gives up
// with an error when a solver is interrupted or after maxIterations
// rounds.
func Solve(g *aig.AIG, root aig.Lit, xPIs, tPIs []int, opts Options) (*Result, error) {
	inT := make(map[int]bool, len(tPIs))
	for _, p := range tPIs {
		inT[p] = true
	}
	for _, p := range xPIs {
		if inT[p] {
			return nil, fmt.Errorf("qbf: PI %d in both x and t", p)
		}
	}

	// Existential side: expansion AIG over x variables only.
	expg := aig.New()
	xEdge := make(map[int]aig.Lit, len(xPIs)) // src PI pos -> exp edge
	for _, p := range xPIs {
		xEdge[p] = expg.AddPI(g.PIName(p))
	}
	// Any PI neither in x nor t is existential too.
	for i := 0; i < g.NumPIs(); i++ {
		if _, ok := xEdge[i]; !ok && !inT[i] {
			xEdge[i] = expg.AddPI(g.PIName(i))
		}
	}
	expSolver := sat.New()
	expEnc := cnf.NewEncoder(expSolver, expg)
	// Encode the x PIs up front for witness readback.
	xLits := make([]sat.Lit, len(xPIs))
	for i, p := range xPIs {
		xLits[i] = expEnc.Lit(xEdge[p])
	}

	// Universal side: φ encoded once with free x and t.
	uniSolver := sat.New()
	uniEnc := cnf.NewEncoder(uniSolver, g)
	uniRoot := uniEnc.Lit(root)
	uniX := make([]sat.Lit, len(xPIs))
	for i, p := range xPIs {
		uniX[i] = uniEnc.Lit(g.PI(p))
	}
	uniT := make([]sat.Lit, len(tPIs))
	for i, p := range tPIs {
		uniT[i] = uniEnc.Lit(g.PI(p))
	}

	if opts.OnSolver != nil {
		opts.OnSolver(expSolver)
		opts.OnSolver(uniSolver)
	}

	res := &Result{}
	// addCopy conjoins φ(move, x) to the expansion.
	addCopy := func(move []bool) {
		piMap := make([]aig.Lit, g.NumPIs())
		for i := 0; i < g.NumPIs(); i++ {
			if e, ok := xEdge[i]; ok {
				piMap[i] = e
			}
		}
		for i, p := range tPIs {
			if move[i] {
				piMap[p] = aig.ConstTrue
			} else {
				piMap[p] = aig.ConstFalse
			}
		}
		r := aig.Transfer(expg, g, piMap, []aig.Lit{root})[0]
		expSolver.AddClause(expEnc.Lit(r)) // copy must be satisfied
		res.Copies++
	}

	for res.Iterations = 0; res.Iterations < maxIterations; res.Iterations++ {
		switch expSolver.Solve() {
		case sat.Unsat:
			// No x satisfies all collected copies: formula is false.
			res.Holds = false
			return res, nil
		case sat.Unknown:
			return res, fmt.Errorf("qbf: existential solver interrupted after %d iterations", res.Iterations)
		}
		xStar := make([]bool, len(xPIs))
		assumps := make([]sat.Lit, 0, len(xPIs)+1)
		for i := range xPIs {
			xStar[i] = expSolver.ModelBool(xLits[i])
			assumps = append(assumps, uniX[i].XorSign(!xStar[i]))
		}
		// Countermove query: some t with φ(t, x*) = 0?
		assumps = append(assumps, uniRoot.Not())
		switch uniSolver.Solve(assumps...) {
		case sat.Unsat:
			// ∀t φ(t, x*): witness found.
			res.Holds = true
			res.Witness = xStar
			return res, nil
		case sat.Unknown:
			return res, fmt.Errorf("qbf: universal solver interrupted after %d iterations", res.Iterations)
		}
		move := make([]bool, len(tPIs))
		for i := range tPIs {
			move[i] = uniSolver.ModelBool(uniT[i])
		}
		res.Moves = append(res.Moves, move)
		addCopy(move)
	}
	return res, fmt.Errorf("qbf: iteration limit %d exceeded", maxIterations)
}
