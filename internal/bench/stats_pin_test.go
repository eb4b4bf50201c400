package bench

import (
	"testing"

	"ecopatch/internal/eco"
	"ecopatch/internal/sat"
)

// TestSolverStatsPinned pins the folded SAT-kernel counters of three
// serial solves. The engine drops each stage's finished solvers and
// keeps only their summed counters, and the exact search's hitting
// sets decide which SAT calls it makes; both must leave the totals
// exactly where the per-solver sum over the whole run put them.
// unit5 runs the cofactor feasibility check, unit14 the 2QBF one,
// unit13 the exact support search.
func TestSolverStatsPinned(t *testing.T) {
	for _, c := range []struct {
		unit, mode string
		want       sat.Stats
	}{
		{"unit5", ModeMinAssume, sat.Stats{Starts: 72, Decisions: 2625, Propagations: 76264,
			Conflicts: 954, SolveCalls: 67, Learnts: 953, Restarts: 5, LBDSum: 5035}},
		{"unit14", ModeMinAssume, sat.Stats{Starts: 614, Decisions: 19547, Propagations: 776248,
			Conflicts: 3581, SolveCalls: 607, Learnts: 3580, Restarts: 7, LBDSum: 14867}},
		{"unit13", ModeExact, sat.Stats{Starts: 112, Decisions: 6482, Propagations: 64515,
			Conflicts: 301, SolveCalls: 112, Learnts: 300, LBDSum: 1230}},
	} {
		cfg, err := ConfigByName(1, c.unit)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Table1Options(c.mode, StructuralUnits[cfg.Name])
		if err != nil {
			t.Fatal(err)
		}
		res, err := eco.Solve(inst, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("%s/%s: not verified", c.unit, c.mode)
		}
		if res.Stats.Solver != c.want {
			t.Errorf("%s/%s: solver stats\n got %+v\nwant %+v", c.unit, c.mode, res.Stats.Solver, c.want)
		}
	}
}
