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
// exactly where the per-solver sum over the whole run put them. The
// one-copy solver of the constant-target check outlives every window
// and must be folded exactly once. unit5 runs the cofactor feasibility
// check, unit14 the 2QBF one and settles 9 of its 12 targets as
// constants, unit13 the exact support search (simulation answers its
// constant check, so its solver never runs).
func TestSolverStatsPinned(t *testing.T) {
	for _, c := range []struct {
		unit, mode string
		want       sat.Stats
	}{
		{"unit5", ModeMinAssume, sat.Stats{Starts: 62, Decisions: 2232, Propagations: 54843,
			Conflicts: 723, SolveCalls: 58, Learnts: 722, Restarts: 4, LBDSum: 4067}},
		{"unit14", ModeMinAssume, sat.Stats{Starts: 355, Decisions: 15360, Propagations: 438677,
			Conflicts: 1443, SolveCalls: 351, Learnts: 1442, Restarts: 4, LBDSum: 7408}},
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
