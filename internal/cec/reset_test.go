package cec

import (
	"errors"
	"math/rand"
	"testing"

	"ecopatch/internal/aig"
	"ecopatch/internal/sat"
)

// TestPairCheckerInterruptReset pins the pooled-checker contract: an
// interrupted PairChecker answers ErrGaveUp (sticky — a cancelled
// job's deadline watcher must keep winning), and Reset re-arms it for
// the next job without losing the incremental clause state.
func TestPairCheckerInterruptReset(t *testing.T) {
	g := aig.New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	and1 := g.And(a, b)
	and2 := g.And(b, a) // structurally hashed or at least equivalent
	orAB := g.Or(a, b)

	pc := NewPairChecker(g, CheckOptions{})
	pc.Solver().Interrupt()

	// Pick a pair the fast paths cannot answer (equal edges and
	// complements short-circuit before the solver runs).
	if _, _, err := pc.CheckPair(and1, orAB); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("interrupted CheckPair err = %v, want ErrGaveUp", err)
	}
	// Sticky until cleared.
	if _, _, err := pc.CheckPair(and1, orAB); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("second interrupted CheckPair err = %v, want ErrGaveUp (sticky)", err)
	}

	pc.Reset()
	equal, _, err := pc.CheckPair(and1, and2)
	if err != nil {
		t.Fatalf("post-Reset CheckPair(and, and) error: %v", err)
	}
	if !equal {
		t.Fatal("post-Reset CheckPair(and, and) = unequal")
	}
	equal, cex, err := pc.CheckPair(and1, orAB)
	if err != nil {
		t.Fatalf("post-Reset CheckPair(and, or) error: %v", err)
	}
	if equal {
		t.Fatal("post-Reset CheckPair(and, or) = equal")
	}
	// The counterexample must actually distinguish AND from OR:
	// exactly one input true.
	if len(cex) != 2 || cex[0] == cex[1] {
		t.Fatalf("counterexample %v does not distinguish and/or", cex)
	}
}

// randomMultiOutGraph builds a graph with nOut outputs over shared
// random logic.
func randomMultiOutGraph(seed int64, nOut int) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New()
	var pool []aig.Lit
	for i := 0; i < 8; i++ {
		pool = append(pool, g.AddPI("x"))
	}
	for i := 0; i < 120; i++ {
		a := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		b := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		pool = append(pool, g.And(a, b))
	}
	for o := 0; o < nOut; o++ {
		g.AddPO("y", pool[len(pool)-1-o])
	}
	return g
}

// TestShardedInterrupt: interrupting every solver of a check yields
// ErrGaveUp, both through checkPairs (the fraig front end gives up) and
// in the final diff query alone (solvePairs returns no verdict rather
// than an equivalence).
func TestShardedInterrupt(t *testing.T) {
	g1 := randomMultiOutGraph(11, 8)
	g2 := aig.Clone(g1)
	m := aig.New()
	piMap := make([]aig.Lit, g1.NumPIs())
	for i := range piMap {
		piMap[i] = m.AddPI(g1.PIName(i))
	}
	outs1 := make([]aig.Lit, g1.NumPOs())
	outs2 := make([]aig.Lit, g2.NumPOs())
	for i := range outs1 {
		outs1[i] = g1.PO(i)
		outs2[i] = g2.PO(i)
	}
	t1 := aig.Transfer(m, g1, piMap, outs1)
	t2 := aig.Transfer(m, g2, piMap, outs2)
	// Force structural difference so the SAT path runs: re-transfer
	// under fresh nodes is already merged by strashing, so mutate one.
	t2[0] = t2[0].Not()
	opt := CheckOptions{OnSolver: func(s *sat.Solver) { s.Interrupt() }}
	if _, err := checkPairs(m, piMap, t1, t2, opt); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("interrupted check: err=%v, want ErrGaveUp", err)
	}
	if _, err := solvePairs(m, piMap, t1, t2, differingPairs(t1, t2), opt); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("interrupted diff query: err=%v, want ErrGaveUp", err)
	}
}
