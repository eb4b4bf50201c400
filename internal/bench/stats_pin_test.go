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
// and must be folded exactly once; so must each target's offset solver
// for cube expansion, which is registered inside rectifyOne's mark and
// released with it. unit5 runs the cofactor feasibility check, unit14
// the 2QBF one and settles 9 of its 12 targets as constants, unit13
// the exact support search (simulation answers its constant check, so
// its solver never runs).
func TestSolverStatsPinned(t *testing.T) {
	for _, c := range []struct {
		unit, mode string
		want       sat.Stats
	}{
		{"unit5", ModeMinAssume, sat.Stats{Starts: 58, Decisions: 1963, Propagations: 56969,
			Conflicts: 831, SolveCalls: 54, Learnts: 830, Restarts: 4, LBDSum: 4470}},
		{"unit14", ModeMinAssume, sat.Stats{Starts: 318, Decisions: 8167, Propagations: 396014,
			Conflicts: 1671, SolveCalls: 314, Learnts: 1670, Restarts: 4, LBDSum: 8361}},
		{"unit13", ModeExact, sat.Stats{Starts: 106, Decisions: 5688, Propagations: 59001,
			Conflicts: 316, SolveCalls: 106, Learnts: 315, LBDSum: 1288}},
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
