package sat

import "testing"

// TestSolveConflictsAllocationFree pins that conflict analysis works in
// solver-owned buffers: a budgeted Solve that runs hundreds of
// conflicts allocates nothing per conflict. What remains is the
// amortized growth of the arena and watch lists as learnt clauses
// accumulate, a few allocations per Solve.
func TestSolveConflictsAllocationFree(t *testing.T) {
	const budget = 200
	s := New()
	pigeonhole(s, 12, 11)
	s.SetConfBudget(budget)
	solve := func() {
		if st := s.Solve(); st != Unknown {
			t.Fatalf("PHP(12,11) under a %d-conflict budget: got %v, want Unknown", budget, st)
		}
	}
	// Warm up: let every growable buffer reach its steady-state size.
	for i := 0; i < 50; i++ {
		solve()
	}
	c0 := s.Stats.Conflicts
	allocs := testing.AllocsPerRun(20, solve)
	perRun := float64(s.Stats.Conflicts-c0) / 21 // AllocsPerRun adds one warm-up run
	if perRun < budget/2 {
		t.Fatalf("only %.0f conflicts per Solve; the test needs a conflict-heavy search", perRun)
	}
	if allocs > perRun/20 {
		t.Fatalf("%.1f allocations per Solve over %.0f conflicts; want none per conflict", allocs, perRun)
	}
}
