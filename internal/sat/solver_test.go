package sat

import (
	"math/rand"
	"testing"
)

func newVars(s *Solver, n int) []Lit {
	lits := make([]Lit, n)
	for i := range lits {
		lits[i] = PosLit(s.NewVar())
	}
	return lits
}

func TestLitBasics(t *testing.T) {
	v := Var(5)
	p := PosLit(v)
	n := NegLit(v)
	if p.Var() != v || n.Var() != v {
		t.Fatalf("Var roundtrip failed: %v %v", p.Var(), n.Var())
	}
	if p.Sign() || !n.Sign() {
		t.Fatalf("Sign wrong: %v %v", p.Sign(), n.Sign())
	}
	if p.Not() != n || n.Not() != p {
		t.Fatalf("Not wrong")
	}
	if MkLit(v, false) != p || MkLit(v, true) != n {
		t.Fatalf("MkLit wrong")
	}
	if p.XorSign(true) != n || p.XorSign(false) != p {
		t.Fatalf("XorSign wrong")
	}
	if p.String() != "6" || n.String() != "-6" {
		t.Fatalf("String wrong: %q %q", p.String(), n.String())
	}
}

func TestLBool(t *testing.T) {
	if LTrue.Not() != LFalse || LFalse.Not() != LTrue || LUndef.Not() != LUndef {
		t.Fatal("LBool.Not wrong")
	}
	if LTrue.String() != "true" || LFalse.String() != "false" || LUndef.String() != "undef" {
		t.Fatal("LBool.String wrong")
	}
}

func TestEmptyFormulaIsSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != Sat {
		t.Fatalf("empty formula: got %v, want Sat", got)
	}
}

func TestSingleUnit(t *testing.T) {
	s := New()
	a := PosLit(s.NewVar())
	s.AddClause(a)
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v", got)
	}
	if s.ModelValue(a) != LTrue {
		t.Fatalf("model value of unit literal: %v", s.ModelValue(a))
	}
}

func TestContradictingUnits(t *testing.T) {
	s := New()
	a := PosLit(s.NewVar())
	s.AddClause(a)
	if ok := s.AddClause(a.Not()); ok {
		t.Fatal("expected AddClause to report inconsistency")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v", got)
	}
}

func TestSimpleChainPropagation(t *testing.T) {
	s := New()
	ls := newVars(s, 5)
	for i := 0; i+1 < len(ls); i++ {
		s.AddClause(ls[i].Not(), ls[i+1]) // x_i -> x_{i+1}
	}
	s.AddClause(ls[0])
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v", got)
	}
	for i, l := range ls {
		if s.ModelValue(l) != LTrue {
			t.Fatalf("chain var %d not propagated to true", i)
		}
	}
}

func TestXorChainUnsat(t *testing.T) {
	// x1 xor x2, x2 xor x3, x1 xor x3 with odd parity constraint is UNSAT.
	s := New()
	ls := newVars(s, 3)
	addXORConstraint := func(a, b Lit, val bool) {
		// a xor b = val
		if val {
			s.AddClause(a, b)
			s.AddClause(a.Not(), b.Not())
		} else {
			s.AddClause(a.Not(), b)
			s.AddClause(a, b.Not())
		}
	}
	addXORConstraint(ls[0], ls[1], true)
	addXORConstraint(ls[1], ls[2], true)
	addXORConstraint(ls[0], ls[2], true)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("odd xor cycle: got %v, want Unsat", got)
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons into n holes, UNSAT.
func pigeonhole(s *Solver, pigeons, holes int) {
	lit := make([][]Lit, pigeons)
	for p := 0; p < pigeons; p++ {
		lit[p] = newVars(s, holes)
		s.AddClause(lit[p]...) // each pigeon in some hole
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(lit[p1][h].Not(), lit[p2][h].Not())
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d,%d): got %v, want Unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(5,5): got %v, want Sat", got)
	}
}

// bruteForceSat exhaustively checks satisfiability of a clause set
// over n variables.
func bruteForceSat(n int, clauses [][]Lit) bool {
	for m := 0; m < 1<<n; m++ {
		ok := true
		for _, c := range clauses {
			cSat := false
			for _, l := range c {
				bit := m>>uint(l.Var())&1 == 1
				if bit != l.Sign() {
					cSat = true
					break
				}
			}
			if !cSat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func evalClauses(model func(Lit) LBool, clauses [][]Lit) bool {
	for _, c := range clauses {
		cSat := false
		for _, l := range c {
			if model(l) == LTrue {
				cSat = true
				break
			}
		}
		if !cSat {
			return false
		}
	}
	return true
}

func randomClauses(rng *rand.Rand, nVars, nClauses, width int) [][]Lit {
	clauses := make([][]Lit, nClauses)
	for i := range clauses {
		k := 1 + rng.Intn(width)
		c := make([]Lit, k)
		for j := range c {
			c[j] = MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1)
		}
		clauses[i] = c
	}
	return clauses
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(10)
		nClauses := 1 + rng.Intn(5*nVars)
		clauses := randomClauses(rng, nVars, nClauses, 3)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got := s.Solve()
		want := bruteForceSat(nVars, clauses)
		if (got == Sat) != want {
			t.Fatalf("iter %d: solver=%v bruteforce=%v (%d vars, %d clauses)",
				iter, got, want, nVars, nClauses)
		}
		if got == Sat && !evalClauses(s.ModelValue, clauses) {
			t.Fatalf("iter %d: model does not satisfy formula", iter)
		}
	}
}

func TestIncrementalSolving(t *testing.T) {
	s := New()
	ls := newVars(s, 4)
	s.AddClause(ls[0], ls[1])
	if s.Solve() != Sat {
		t.Fatal("phase 1 should be Sat")
	}
	s.AddClause(ls[0].Not())
	s.AddClause(ls[1].Not(), ls[2])
	if s.Solve() != Sat {
		t.Fatal("phase 2 should be Sat")
	}
	if s.ModelValue(ls[1]) != LTrue || s.ModelValue(ls[2]) != LTrue {
		t.Fatal("phase 2 model wrong")
	}
	s.AddClause(ls[2].Not())
	if s.Solve() != Unsat {
		t.Fatal("phase 3 should be Unsat")
	}
}

func TestAssumptionsBasic(t *testing.T) {
	s := New()
	a, b := PosLit(s.NewVar()), PosLit(s.NewVar())
	s.AddClause(a.Not(), b) // a -> b
	if got := s.Solve(a); got != Sat {
		t.Fatalf("assume a: %v", got)
	}
	if s.ModelValue(b) != LTrue {
		t.Fatal("b must follow from a")
	}
	if got := s.Solve(a, b.Not()); got != Unsat {
		t.Fatalf("assume a, ¬b: %v", got)
	}
	core := s.Core()
	if len(core) == 0 {
		t.Fatal("empty core for assumption conflict")
	}
	for _, l := range core {
		if l != a && l != b.Not() {
			t.Fatalf("core literal %v is not an assumption", l)
		}
	}
	// Solver must remain usable without the assumptions.
	if got := s.Solve(); got != Sat {
		t.Fatalf("after assumption conflict: %v", got)
	}
}

func TestAssumptionCoreIsUnsatAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		nVars := 4 + rng.Intn(8)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		clauses := randomClauses(rng, nVars, 3*nVars, 3)
		for _, c := range clauses {
			if !s.AddClause(c...) {
				break
			}
		}
		// Assume a random subset of literals.
		var assumps []Lit
		for v := 0; v < nVars; v++ {
			if rng.Intn(2) == 0 {
				assumps = append(assumps, MkLit(Var(v), rng.Intn(2) == 1))
			}
		}
		if s.Solve(assumps...) != Unsat {
			continue
		}
		core := append([]Lit(nil), s.Core()...)
		// Each core literal must be one of the assumptions.
		for _, l := range core {
			found := false
			for _, a := range assumps {
				if a == l {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("iter %d: core literal %v not among assumptions", iter, l)
			}
		}
		// The core alone must still be Unsat.
		if got := s.Solve(core...); got != Unsat {
			t.Fatalf("iter %d: core is not Unsat on its own: %v", iter, got)
		}
	}
}

func TestFailed(t *testing.T) {
	s := New()
	a, b, c := PosLit(s.NewVar()), PosLit(s.NewVar()), PosLit(s.NewVar())
	s.AddClause(a.Not(), b.Not()) // ¬(a ∧ b)
	if got := s.Solve(a, b, c); got != Unsat {
		t.Fatalf("got %v", got)
	}
	if !s.Failed(a) || !s.Failed(b) {
		t.Fatal("a and b should be in the failed set")
	}
	if s.Failed(c) {
		t.Fatal("c is irrelevant and should not be in the failed set")
	}
}

func TestConflictBudget(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8)
	s.SetConfBudget(5)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("tiny budget on PHP(9,8): got %v, want Unknown", got)
	}
	s.SetConfBudget(-1)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("unlimited budget: got %v, want Unsat", got)
	}
}

func TestSolverReusableAfterBudget(t *testing.T) {
	s := New()
	ls := newVars(s, 3)
	s.AddClause(ls[0], ls[1], ls[2])
	s.SetConfBudget(0)
	_ = s.Solve() // may be Unknown or Sat depending on propagation only
	s.SetConfBudget(-1)
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v", got)
	}
}

func TestValueDuringAndAfterSolve(t *testing.T) {
	s := New()
	a := PosLit(s.NewVar())
	s.AddClause(a)
	s.Solve()
	// Level-0 units stay assigned.
	if s.Value(a.Var()) != LTrue {
		t.Fatalf("level-0 unit not retained: %v", s.Value(a.Var()))
	}
	if s.LitValue(a.Not()) != LFalse {
		t.Fatalf("LitValue of negation: %v", s.LitValue(a.Not()))
	}
}

func TestManyVars(t *testing.T) {
	s := New()
	ls := newVars(s, 2000)
	for i := 0; i+1 < len(ls); i += 2 {
		s.AddClause(ls[i], ls[i+1])
		s.AddClause(ls[i].Not(), ls[i+1].Not())
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v", got)
	}
	for i := 0; i+1 < len(ls); i += 2 {
		a := s.ModelValue(ls[i]) == LTrue
		b := s.ModelValue(ls[i+1]) == LTrue
		if a == b {
			t.Fatalf("pair %d not xor-satisfied", i)
		}
	}
}

func TestStatsProgress(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	s.Solve()
	if s.Stats.Conflicts == 0 || s.Stats.Decisions == 0 || s.Stats.Propagations == 0 {
		t.Fatalf("stats not collected: %+v", s.Stats)
	}
	if s.Stats.SolveCalls != 1 {
		t.Fatalf("SolveCalls = %d", s.Stats.SolveCalls)
	}
}

func TestEnsureVars(t *testing.T) {
	s := New()
	s.EnsureVars(10)
	if s.NumVars() != 10 {
		t.Fatalf("NumVars = %d", s.NumVars())
	}
	s.EnsureVars(5)
	if s.NumVars() != 10 {
		t.Fatalf("EnsureVars shrank: %d", s.NumVars())
	}
}

func TestRepeatedAssumptionSolves(t *testing.T) {
	// Stress assumption handling with learnt-clause reuse.
	rng := rand.New(rand.NewSource(99))
	s := New()
	const n = 30
	ls := newVars(s, n)
	for i := 0; i < 80; i++ {
		a := ls[rng.Intn(n)].XorSign(rng.Intn(2) == 1)
		b := ls[rng.Intn(n)].XorSign(rng.Intn(2) == 1)
		c := ls[rng.Intn(n)].XorSign(rng.Intn(2) == 1)
		s.AddClause(a, b, c)
	}
	for iter := 0; iter < 50; iter++ {
		var assumps []Lit
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				assumps = append(assumps, ls[v].XorSign(rng.Intn(2) == 1))
			}
		}
		got := s.Solve(assumps...)
		if got == Sat {
			for _, a := range assumps {
				if s.ModelValue(a) != LTrue {
					t.Fatalf("iter %d: assumption %v not honored in model", iter, a)
				}
			}
		}
	}
}

func TestProofModeBasics(t *testing.T) {
	// Proof logging must not change answers.
	rng := rand.New(rand.NewSource(123))
	for iter := 0; iter < 80; iter++ {
		nVars := 4 + rng.Intn(8)
		clauses := randomClauses(rng, nVars, 4*nVars, 3)

		plain := New()
		for v := 0; v < nVars; v++ {
			plain.NewVar()
		}
		okPlain := true
		for _, c := range clauses {
			if !plain.AddClause(c...) {
				okPlain = false
				break
			}
		}
		wantStatus := Unsat
		if okPlain {
			wantStatus = plain.Solve()
		}

		logged := New()
		p := logged.StartProof()
		for v := 0; v < nVars; v++ {
			logged.NewVar()
		}
		okLogged := true
		for _, c := range clauses {
			if !logged.AddClause(c...) {
				okLogged = false
				break
			}
		}
		gotStatus := Unsat
		if okLogged {
			gotStatus = logged.Solve()
		}
		if gotStatus != wantStatus {
			t.Fatalf("iter %d: plain=%v logged=%v", iter, wantStatus, gotStatus)
		}
		if gotStatus == Unsat && !p.HasFinal() {
			t.Fatalf("iter %d: UNSAT without a recorded refutation", iter)
		}
		if gotStatus == Sat && p.HasFinal() {
			t.Fatalf("iter %d: SAT instance recorded a refutation", iter)
		}
	}
}

func TestStartProofOnUsedSolverPanics(t *testing.T) {
	s := New()
	s.NewVar()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.StartProof()
}

func TestWatchedLiteralInvariantUnderBacktracking(t *testing.T) {
	// Regression-style stress: interleave solving, adding clauses and
	// assumptions; every Sat model must actually satisfy the clauses.
	rng := rand.New(rand.NewSource(321))
	s := New()
	const n = 40
	lits := newVars(s, n)
	var all [][]Lit
	for round := 0; round < 60; round++ {
		for c := 0; c < 5; c++ {
			cl := []Lit{
				lits[rng.Intn(n)].XorSign(rng.Intn(2) == 1),
				lits[rng.Intn(n)].XorSign(rng.Intn(2) == 1),
				lits[rng.Intn(n)].XorSign(rng.Intn(2) == 1),
			}
			if s.AddClause(cl...) {
				all = append(all, cl)
			} else {
				return // became UNSAT; done
			}
		}
		var assumps []Lit
		for k := 0; k < rng.Intn(4); k++ {
			assumps = append(assumps, lits[rng.Intn(n)].XorSign(rng.Intn(2) == 1))
		}
		if s.Solve(assumps...) == Sat {
			if !evalClauses(s.ModelValue, all) {
				t.Fatalf("round %d: model violates clause set", round)
			}
			for _, a := range assumps {
				if s.ModelValue(a) != LTrue {
					t.Fatalf("round %d: assumption %v violated", round, a)
				}
			}
		}
	}
}
