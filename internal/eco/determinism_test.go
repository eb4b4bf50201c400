package eco

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
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

// solveCase is one instance with the options to solve it under.
type solveCase struct {
	inst *Instance
	opt  Options
}

// parallelCases returns the instances the determinism tests sweep:
// single target, multi target, the cofactor-expansion feasibility path
// (UseQBF off routes checkFeasible through one SAT call on the
// quantified miter), and unit14. unit14 mixes 9 constant targets with
// 3 that run the two-copy pipeline, so its runs exercise the one-copy
// solver shared across the target sequence; under a 100-conflict
// budget one constant check comes back Unknown and some targets fall
// back to structural patches, so the shared solver's carried-over state
// must repeat exactly from run to run.
func parallelCases(t *testing.T) map[string]solveCase {
	t.Helper()
	base := DefaultOptions()
	noQBF := base
	noQBF.UseQBF = false
	budget := base
	budget.ConfBudget = 100
	unit14 := loadTestdata(t, "unit14")
	return map[string]solveCase{
		"single":        {mustInstance(t, implAndTarget, specAndOr, nil), base},
		"multi":         {mustInstance(t, implMultiTarget, specMultiTarget, nil), base},
		"multi-noqbf":   {mustInstance(t, implMultiTarget, specMultiTarget, nil), noQBF},
		"unit14":        {unit14, base},
		"unit14-budget": {unit14, budget},
	}
}

// snapshotResult flattens everything a run must repeat: verdicts,
// costs, patch structure, and the synthesized netlist text.
func snapshotResult(res *Result) string {
	return fmt.Sprintf("feasible=%v verified=%v cost=%d gates=%d patches=%+v netlist:\n%s",
		res.Feasible, res.Verified, res.TotalCost, res.TotalGates, res.Patches, res.Patch)
}

// TestParallelismOneBitReproducible pins the determinism contract: the
// engine is serial, so runs at GOMAXPROCS 1 and 4 produce identical
// patches, costs, synthesized netlists and Stats work counters. No
// result may depend on the host's core count.
func TestParallelismOneBitReproducible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, tc := range parallelCases(t) {
		t.Run(name, func(t *testing.T) {
			var snaps []string
			for _, procs := range []int{1, 4, 1} {
				runtime.GOMAXPROCS(procs)
				res, err := Solve(tc.inst, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Verified {
					t.Fatal("not verified")
				}
				st := res.Stats
				snaps = append(snaps, fmt.Sprintf("%s\nsat_calls=%d solver=%+v cubes=%d",
					snapshotResult(res), st.SATCalls, st.Solver, st.CubesEnumerated))
			}
			for i := 1; i < len(snaps); i++ {
				if snaps[i] != snaps[0] {
					t.Fatalf("run %d differs from run 0:\nrun0:\n%s\nrun%d:\n%s", i, snaps[0], i, snaps[i])
				}
			}
		})
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

// TestWorkMeterDeterministic lowers the work allotment until unit9's
// exact solve meets it in both metered stages: SAT_prune degrades to
// minimize_assumptions, and cube enumeration hands a target to the
// structural fallback. The result must still verify. The meter counts
// work, not time, so a run beside a concurrent CPU-bound solve must
// return the same patches as a run alone.
func TestWorkMeterDeterministic(t *testing.T) {
	saved := stageAllot
	defer func() { stageAllot = saved }()
	stageAllot.support, stageAllot.patch = 20000, 20000
	opt := DefaultOptions()
	opt.Support = SupportExact
	solve := func(inst *Instance) ([]TargetPatch, string) {
		var log strings.Builder
		o := opt
		o.Log = &log
		res, err := Solve(inst, o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatal("not verified")
		}
		return res.Patches, log.String()
	}
	alone, log := solve(loadTestdata(t, "unit9"))
	for _, line := range []string{
		"SAT_prune over budget; degrading to minimize_assumptions",
		"SAT path failed (eco: SAT budget exhausted); using structural patch",
	} {
		if !strings.Contains(log, line) {
			t.Fatalf("log lacks %q:\n%s", line, log)
		}
	}

	stop := make(chan struct{})
	busyDone := make(chan struct{})
	other := loadTestdata(t, "unit9")
	go func() {
		defer close(busyDone)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := Solve(other, opt); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		<-busyDone
	}()
	busy, _ := solve(loadTestdata(t, "unit9"))
	if !reflect.DeepEqual(busy, alone) {
		t.Fatalf("patches beside a concurrent solve differ:\nalone %+v\nbusy  %+v", alone, busy)
	}
}
