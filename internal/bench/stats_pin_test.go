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
// released with it. unit14 has 12 targets, more than MaxQuantExpand+1,
// so its 2QBF feasibility check runs first; it settles 9 of its 12
// targets as constants. unit5 and unit13 run no feasibility check:
// their verified patches certify it. unit13 runs the exact support
// search (simulation answers its constant check, so its solver never
// runs). The unit5 and unit13 pins are the per-solver sums of the
// up-front-check engine minus its feasibility solvers.
func TestSolverStatsPinned(t *testing.T) {
	for _, c := range []struct {
		unit, mode string
		want       sat.Stats
	}{
		{"unit5", ModeMinAssume, sat.Stats{Starts: 53, Decisions: 1642, Propagations: 46686,
			Conflicts: 657, SolveCalls: 49, Learnts: 657, Restarts: 4, LBDSum: 3846}},
		{"unit14", ModeMinAssume, sat.Stats{Starts: 318, Decisions: 8167, Propagations: 396014,
			Conflicts: 1671, SolveCalls: 314, Learnts: 1670, Restarts: 4, LBDSum: 8361}},
		{"unit13", ModeExact, sat.Stats{Starts: 101, Decisions: 5614, Propagations: 56520,
			Conflicts: 279, SolveCalls: 101, Learnts: 279, LBDSum: 1202}},
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
