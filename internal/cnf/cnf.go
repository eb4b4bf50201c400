// Package cnf converts AIG cones into conjunctive normal form inside
// a SAT solver using the Tseitin transformation. One Encoder binds one
// AIG to one solver; several encoders may share a solver, which is how
// the ECO engine builds multi-copy miters (expression (2) and (3) of
// the paper) without duplicating circuits structurally.
package cnf

import (
	"ecopatch/internal/aig"
	"ecopatch/internal/sat"
)

// Encoder incrementally Tseitin-encodes cones of one AIG into a
// solver. Nodes are encoded at most once; repeated Encode calls with
// overlapping cones share variables and clauses.
type Encoder struct {
	S *sat.Solver
	G *aig.AIG

	vars     []sat.Lit // per AIG node; LitUndef when not yet encoded
	constSet bool
}

// NewEncoder returns an encoder of g into s.
func NewEncoder(s *sat.Solver, g *aig.AIG) *Encoder {
	return &Encoder{S: s, G: g}
}

func (e *Encoder) grow() {
	for len(e.vars) < e.G.NumNodes() {
		e.vars = append(e.vars, sat.LitUndef)
	}
}

// Encode makes sure the cones of all roots are present in the solver
// and returns the solver literal for each root edge.
func (e *Encoder) Encode(roots ...aig.Lit) []sat.Lit {
	e.grow()
	out := make([]sat.Lit, len(roots))
	for i, r := range roots {
		out[i] = e.Lit(r)
	}
	return out
}

// Lit returns the solver literal for an AIG edge, encoding its cone
// on first use. Encoding is iterative in topological order, so deep
// cones cannot overflow the stack.
func (e *Encoder) Lit(l aig.Lit) sat.Lit {
	e.grow()
	if e.vars[l.Node()] == sat.LitUndef {
		for _, n := range e.G.ConeNodes([]aig.Lit{l}) {
			if e.vars[n] == sat.LitUndef {
				e.encodeNode(n)
			}
		}
	}
	return e.vars[l.Node()].XorSign(l.Compl())
}

// encodeNode creates the solver variable and clauses for node n.
// AND fanins must already be encoded (guaranteed by topological
// order of ConeNodes).
func (e *Encoder) encodeNode(n int) {
	g, s := e.G, e.S
	v := sat.PosLit(s.NewVar())
	e.vars[n] = v
	switch {
	case g.IsConst(n):
		s.AddClause(v.Not()) // constant node is false
	case g.IsPI(n):
		// Free variable.
	default:
		f0, f1 := g.Fanins(n)
		a := e.vars[f0.Node()].XorSign(f0.Compl())
		b := e.vars[f1.Node()].XorSign(f1.Compl())
		// v <-> a & b
		s.AddClause(v.Not(), a)
		s.AddClause(v.Not(), b)
		s.AddClause(v, a.Not(), b.Not())
	}
}

// Encoded reports whether node n already has a solver variable.
func (e *Encoder) Encoded(n int) bool {
	return n < len(e.vars) && e.vars[n] != sat.LitUndef
}
