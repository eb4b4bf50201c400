package sat

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

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

// TestReserveSameResult pins that Reserve only moves allocation: every
// corpus formula loaded into a solver that reserved room for it first
// gives the same status, model and Stats as one loaded without.
func TestReserveSameResult(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.cnf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			nVars, clauses := readDIMACSClauses(t, path)
			lits := 0
			for _, c := range clauses {
				lits += len(c)
			}
			words := lits + len(clauses)*claLits
			plain := loadCorpusSolver(t, path, DefaultConfig(), false)
			reserved := New()
			reserved.Reserve(nVars, len(clauses), lits)
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := ParseDIMACSInto(f, reserved); err != nil {
				t.Fatal(err)
			}
			if cap(reserved.ca.data) < words || cap(reserved.assigns) < nVars {
				t.Fatalf("reservation not held: arena cap %d < %d or %d vars < %d",
					cap(reserved.ca.data), words, cap(reserved.assigns), nVars)
			}
			st, stR := plain.Solve(), reserved.Solve()
			if st != stR {
				t.Fatalf("status %v, with a reservation %v", st, stR)
			}
			if !slices.Equal(plain.model, reserved.model) {
				t.Fatalf("models differ:\n%v\n%v", plain.model, reserved.model)
			}
			if plain.Stats != reserved.Stats {
				t.Fatalf("stats differ:\n%+v\n%+v", plain.Stats, reserved.Stats)
			}
		})
	}
}
