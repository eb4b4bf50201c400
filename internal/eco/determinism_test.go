package eco

import (
	"fmt"
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

// parallelCases returns the instances the determinism tests sweep:
// single target, multi target, and the cofactor-expansion feasibility
// path (UseQBF off routes checkFeasible through one SAT call on the
// quantified miter).
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
				snaps = append(snaps, fmt.Sprintf("%s\nsat_calls=%d conflicts=%d solver=%+v cubes=%d",
					snapshotResult(res), st.SATCalls, st.Conflicts, st.Solver, st.CubesEnumerated))
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
