package eco

import (
	"errors"
	"math/rand"
	"testing"

	"ecopatch/internal/sat"
)

// randomUnsatWithAssumptions builds a solver whose formula is UNSAT
// under the returned assumption set but SAT without it.
func randomUnsatWithAssumptions(rng *rand.Rand) (*sat.Solver, []sat.Lit) {
	s := sat.New()
	n := 6 + rng.Intn(10)
	vars := make([]sat.Lit, n)
	for i := range vars {
		vars[i] = sat.PosLit(s.NewVar())
	}
	// Random satisfiable-ish clauses.
	for i := 0; i < 2*n; i++ {
		a := vars[rng.Intn(n)].XorSign(rng.Intn(2) == 1)
		b := vars[rng.Intn(n)].XorSign(rng.Intn(2) == 1)
		c := vars[rng.Intn(n)].XorSign(rng.Intn(2) == 1)
		s.AddClause(a, b, c)
	}
	// Force a contradiction only under assumptions: pick a subset S
	// and add a clause requiring at least one of S to be false; then
	// assume all of S true.
	k := 2 + rng.Intn(4)
	var assumps, clause []sat.Lit
	for i := 0; i < k; i++ {
		v := vars[rng.Intn(n)]
		assumps = append(assumps, v)
		clause = append(clause, v.Not())
	}
	s.AddClause(clause...)
	// Pad with irrelevant assumptions.
	for i := 0; i < n/2; i++ {
		assumps = append(assumps, vars[rng.Intn(n)].XorSign(rng.Intn(2) == 1))
	}
	// Dedupe contradictory padding (an assumption list with both l
	// and ¬l is legal but makes minimality reasoning noisy).
	seen := make(map[sat.Var]bool)
	out := assumps[:0]
	for _, a := range assumps {
		if !seen[a.Var()] {
			seen[a.Var()] = true
			out = append(out, a)
		}
	}
	return s, out
}

func TestMinimizeAssumptionsIsMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	checked := 0
	for iter := 0; iter < 120; iter++ {
		s, assumps := randomUnsatWithAssumptions(rng)
		if s.Solve(assumps...) != sat.Unsat {
			continue // padding accidentally made it SAT-irrelevant
		}
		checked++
		arr := append([]sat.Lit(nil), assumps...)
		calls := 0
		m := &minimizer{s: s, calls: &calls}
		kept, err := m.minimize(arr)
		if err != nil {
			t.Fatal(err)
		}
		sel := arr[:kept]
		// (1) The kept prefix must still be UNSAT.
		if got := s.Solve(sel...); got != sat.Unsat {
			t.Fatalf("iter %d: kept set not UNSAT: %v", iter, got)
		}
		// (2) Minimality: dropping any single kept assumption makes
		// the formula satisfiable.
		for drop := 0; drop < kept; drop++ {
			sub := make([]sat.Lit, 0, kept-1)
			for j := 0; j < kept; j++ {
				if j != drop {
					sub = append(sub, sel[j])
				}
			}
			if got := s.Solve(sub...); got != sat.Sat {
				t.Fatalf("iter %d: dropping %v keeps UNSAT — not minimal", iter, sel[drop])
			}
		}
		if calls == 0 {
			t.Fatal("no SAT calls counted")
		}
	}
	if checked < 40 {
		t.Fatalf("too few valid cases: %d", checked)
	}
}

func TestMinimizeLinearAgreesOnUnsatness(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for iter := 0; iter < 60; iter++ {
		s, assumps := randomUnsatWithAssumptions(rng)
		if s.Solve(assumps...) != sat.Unsat {
			continue
		}
		arr := append([]sat.Lit(nil), assumps...)
		calls := 0
		kept, err := minimizeLinear(s, nil, arr, &calls)
		if err != nil {
			t.Fatal(err)
		}
		if calls != len(assumps) {
			t.Fatalf("linear must make exactly N calls: %d vs %d", calls, len(assumps))
		}
		if got := s.Solve(arr[:kept]...); got != sat.Unsat {
			t.Fatalf("iter %d: linear result not UNSAT", iter)
		}
	}
}

func TestMinimizeEmptyAndSingleton(t *testing.T) {
	s := sat.New()
	a := sat.PosLit(s.NewVar())
	s.AddClause(a.Not()) // ¬a holds
	m := &minimizer{s: s}
	if kept, err := m.minimize(nil); err != nil || kept != 0 {
		t.Fatalf("empty: kept=%d err=%v", kept, err)
	}
	arr := []sat.Lit{a}
	kept, err := m.minimize(arr)
	if err != nil || kept != 1 {
		t.Fatalf("needed singleton: kept=%d err=%v", kept, err)
	}
	// A formula UNSAT on its own needs no assumptions.
	s2 := sat.New()
	b := sat.PosLit(s2.NewVar())
	c := sat.PosLit(s2.NewVar())
	s2.AddClause(b)
	s2.AddClause(b.Not())
	m2 := &minimizer{s: s2}
	arr2 := []sat.Lit{c}
	kept2, err := m2.minimize(arr2)
	if err != nil || kept2 != 0 {
		t.Fatalf("globally-UNSAT singleton: kept=%d err=%v", kept2, err)
	}
}

// TestMinimizeBudgetPropagates interrupts the solver after the first
// Sat answer, so a query deep in the bisection answers Unknown: the
// minimizer must surface errCancelled from the recursion, never a
// support.
func TestMinimizeBudgetPropagates(t *testing.T) {
	s := sat.New()
	A := make([]sat.Lit, 4)
	block := make([]sat.Lit, len(A))
	for i := range A {
		A[i] = sat.PosLit(s.NewVar())
		block[i] = A[i].Not()
	}
	// Only all four assumptions together are UNSAT.
	s.AddClause(block...)
	calls := 0
	m := &minimizer{s: s, calls: &calls, onSat: s.Interrupt}
	if _, err := m.minimize(A); !errors.Is(err, errCancelled) {
		t.Fatalf("minimize err = %v, want errCancelled", err)
	}
	if calls < 2 {
		t.Fatalf("%d solver queries; the interrupt must land after a Sat answer", calls)
	}
}

func TestGreedyAndExactHittingSets(t *testing.T) {
	costs := []int64{5, 1, 1, 10, 2}
	cores := [][]int{{0, 1}, {0, 2}, {3, 4}}
	sel, ok := greedyHittingSet(cores, costs)
	if !ok || len(sel) == 0 {
		t.Fatal("greedy returned nothing")
	}
	covered := func(sel []int) bool {
		for _, c := range cores {
			hit := false
			for _, j := range c {
				for _, s := range sel {
					if s == j {
						hit = true
					}
				}
			}
			if !hit {
				return false
			}
		}
		return true
	}
	if !covered(sel) {
		t.Fatalf("greedy set %v does not cover", sel)
	}
	exact, ok := minHittingSet(cores, costs, 0, noNodeLimit)
	if !ok {
		t.Fatal("exact search found no hitting set")
	}
	if !covered(exact) {
		t.Fatalf("exact set %v does not cover", exact)
	}
	var cost int64
	for _, j := range exact {
		cost += costs[j]
	}
	// Optimum: {1,2,4} = 4 or {1,2}+{4}: cores {0,1},{0,2},{3,4}:
	// {0,4} costs 7; {1,2,4} costs 4 — minimum is 4.
	if cost != 4 {
		t.Fatalf("exact hitting set cost %d, want 4 (%v)", cost, exact)
	}
}

func TestMinHittingSetRandomOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for iter := 0; iter < 100; iter++ {
		nVar := 3 + rng.Intn(6)
		costs := make([]int64, nVar)
		for i := range costs {
			costs[i] = int64(1 + rng.Intn(9))
		}
		nCores := 1 + rng.Intn(5)
		cores := make([][]int, nCores)
		for i := range cores {
			k := 1 + rng.Intn(3)
			seen := map[int]bool{}
			for len(cores[i]) < k {
				j := rng.Intn(nVar)
				if !seen[j] {
					seen[j] = true
					cores[i] = append(cores[i], j)
				}
			}
		}
		got, _ := minHittingSet(cores, costs, 0, noNodeLimit)
		var gotCost int64
		for _, j := range got {
			gotCost = gotCost + costs[j]
		}
		// Brute force.
		best := int64(1) << 60
		for mask := 0; mask < 1<<uint(nVar); mask++ {
			ok := true
			for _, c := range cores {
				hit := false
				for _, j := range c {
					if mask>>uint(j)&1 == 1 {
						hit = true
						break
					}
				}
				if !hit {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			var w int64
			for j := 0; j < nVar; j++ {
				if mask>>uint(j)&1 == 1 {
					w += costs[j]
				}
			}
			if w < best {
				best = w
			}
		}
		if gotCost != best {
			t.Fatalf("iter %d: B&B cost %d != brute force %d (cores %v costs %v)",
				iter, gotCost, best, cores, costs)
		}
	}
}
