package eco

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

const implMultiTarget = `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
and (f, a, t_0);
or  (g2, c, t_1);
endmodule`

const specMultiTarget = `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
wire w1, w2;
or  (w1, b, c);
and (f, a, w1);
and (w2, a, b);
or  (g2, c, w2);
endmodule`

// parallelCases returns the instances the parallelism tests sweep:
// single target, multi target, and the cofactor-expansion feasibility
// path (UseQBF off routes checkFeasible through the portfolio).
func parallelCases(t *testing.T) map[string]struct {
	inst *Instance
	opt  Options
} {
	t.Helper()
	base := DefaultOptions()
	noQBF := base
	noQBF.UseQBF = false
	return map[string]struct {
		inst *Instance
		opt  Options
	}{
		"single":      {mustInstance(t, implAndTarget, specAndOr, nil), base},
		"multi":       {mustInstance(t, implMultiTarget, specMultiTarget, nil), base},
		"multi-noqbf": {mustInstance(t, implMultiTarget, specMultiTarget, nil), noQBF},
	}
}

// TestParallelismOneBitReproducible pins the determinism contract:
// Parallelism = 1 must follow exactly the serial code path, so two
// runs produce identical patches, costs, and synthesized netlists,
// and no portfolio race is ever recorded.
func TestParallelismOneBitReproducible(t *testing.T) {
	for name, tc := range parallelCases(t) {
		t.Run(name, func(t *testing.T) {
			opt := tc.opt
			opt.Parallelism = 1
			var snaps []string
			for run := 0; run < 2; run++ {
				res, err := Solve(tc.inst, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Verified {
					t.Fatal("not verified")
				}
				if res.Stats.PortfolioRaces != 0 || len(res.Stats.PortfolioWins) != 0 {
					t.Fatalf("Parallelism=1 recorded portfolio races: %d %v",
						res.Stats.PortfolioRaces, res.Stats.PortfolioWins)
				}
				snaps = append(snaps, fmt.Sprintf("cost=%d gates=%d patches=%+v netlist:\n%s",
					res.TotalCost, res.TotalGates, res.Patches, res.Patch))
			}
			if snaps[0] != snaps[1] {
				t.Fatalf("Parallelism=1 not reproducible:\nrun0:\n%s\nrun1:\n%s", snaps[0], snaps[1])
			}
		})
	}
}

// TestDefaultOptionsSerial pins that the library default is the
// serial engine on a multi-core host: DefaultOptions leaves
// Parallelism at 0, which must not inherit GOMAXPROCS and race the
// portfolio. The same case at Parallelism 2 must race, so the check
// is not vacuous.
func TestDefaultOptionsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tc := parallelCases(t)["multi-noqbf"]
	res, err := Solve(tc.inst, tc.opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PortfolioRaces != 0 {
		t.Fatalf("DefaultOptions at GOMAXPROCS=2 raced the portfolio %d times", res.Stats.PortfolioRaces)
	}
	opt := tc.opt
	opt.Parallelism = 2
	if res, err = Solve(tc.inst, opt); err != nil {
		t.Fatal(err)
	}
	if res.Stats.PortfolioRaces == 0 {
		t.Fatal("Parallelism=2 recorded no portfolio races")
	}
}

// TestParallelVerdictParity runs every case at Parallelism 1 and 4:
// the verdicts (feasible, verified) must agree, the parallel run's
// patch must pass the independent netlist-splice verification, and
// the portfolio counters must be consistent (every win belongs to a
// counted race).
func TestParallelVerdictParity(t *testing.T) {
	for name, tc := range parallelCases(t) {
		t.Run(name, func(t *testing.T) {
			serialOpt := tc.opt
			serialOpt.Parallelism = 1
			serial, err := Solve(tc.inst, serialOpt)
			if err != nil {
				t.Fatal(err)
			}
			parOpt := tc.opt
			parOpt.Parallelism = 4
			par, err := Solve(tc.inst, parOpt)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Feasible != par.Feasible || serial.Verified != par.Verified {
				t.Fatalf("verdict mismatch: serial feasible=%v verified=%v, parallel feasible=%v verified=%v",
					serial.Feasible, serial.Verified, par.Feasible, par.Verified)
			}
			if len(serial.Patches) != len(par.Patches) {
				t.Fatalf("patch count: serial %d, parallel %d", len(serial.Patches), len(par.Patches))
			}
			ok, err := VerifyPatch(tc.inst, par.Patch)
			if err != nil || !ok {
				t.Fatalf("parallel patch failed VerifyPatch: ok=%v err=%v\n%s", ok, err, par.Patch)
			}
			if par.Stats.PortfolioRaces == 0 {
				t.Fatal("Parallelism=4 recorded no portfolio races")
			}
			var wins int64
			for _, w := range par.Stats.PortfolioWins {
				wins += w
			}
			if wins > par.Stats.PortfolioRaces {
				t.Fatalf("wins %d exceed races %d", wins, par.Stats.PortfolioRaces)
			}
		})
	}
}

// TestParallelSolveContextCancelled feeds a parallel solve an
// already-cancelled context: portfolio members register with the
// stopped solverGroup, get interrupted immediately, and the run seals
// a partial TimedOut result instead of hanging on the race.
func TestParallelSolveContextCancelled(t *testing.T) {
	inst := mustInstance(t, implMultiTarget, specMultiTarget, nil)
	opt := DefaultOptions()
	opt.Parallelism = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveContext(ctx, inst, opt)
	if err != nil {
		t.Fatalf("cancelled parallel solve must return a partial result, got error: %v", err)
	}
	if !res.TimedOut {
		t.Fatal("TimedOut not set on a cancelled context")
	}
	if res.Verified {
		t.Fatal("cancelled parallel solve cannot be verified")
	}
}

// TestParallelBudgetFallback forces the SAT path to fail under a
// 1-conflict budget at Parallelism = 4: every portfolio member
// exhausts its budget, the race returns Unknown, and the engine must
// degrade to structural patches exactly like the serial path.
func TestParallelBudgetFallback(t *testing.T) {
	inst := mustInstance(t, implAndTarget, specAndOr, nil)
	opt := DefaultOptions()
	opt.Parallelism = 4
	opt.ConfBudget = 1
	res, err := Solve(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patches) == 0 {
		t.Fatal("budget fallback produced no patches")
	}
	ok, err := VerifyPatch(inst, res.Patch)
	if err != nil || !ok {
		t.Fatalf("fallback patch failed VerifyPatch: ok=%v err=%v", ok, err)
	}
}

// TestStatsAddMergesPortfolioWins pins the nil-safe map merge used by
// the daemon's metrics aggregation.
func TestStatsAddMergesPortfolioWins(t *testing.T) {
	var total Stats
	total.Add(Stats{PortfolioRaces: 2, PortfolioWins: map[string]int64{"glucose": 1, "luby-pos": 1}})
	total.Add(Stats{PortfolioRaces: 1, PortfolioWins: map[string]int64{"glucose": 1}})
	total.Add(Stats{}) // nil map must not clobber
	want := map[string]int64{"glucose": 2, "luby-pos": 1}
	if total.PortfolioRaces != 3 || !reflect.DeepEqual(total.PortfolioWins, want) {
		t.Fatalf("merged stats: races=%d wins=%v", total.PortfolioRaces, total.PortfolioWins)
	}
}

// TestInterpolationVerifies pins the interpolation path (resolution-
// proof replay) on the multi-target case: it solves, verifies, and its
// patch passes the independent netlist-splice check.
func TestInterpolationVerifies(t *testing.T) {
	tc := parallelCases(t)["multi"]
	opt := tc.opt
	opt.Patch = PatchInterpolation
	res, err := Solve(tc.inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("interpolation patch not verified")
	}
	ok, err := VerifyPatch(tc.inst, res.Patch)
	if err != nil || !ok {
		t.Fatalf("interpolation patch failed VerifyPatch: ok=%v err=%v", ok, err)
	}
}
