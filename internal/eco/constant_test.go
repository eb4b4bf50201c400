package eco

import (
	"maps"
	"path/filepath"
	"reflect"
	"testing"
)

// The instances under testdata/ are Table-1 units at scale 1, written
// by `ecogen -unit unitK`.

// TestConstantTargetsMatchPipeline pins the constant-target shortcut
// to the pipeline it skips: on every window of units 9, 14 and 17,
// and on a hand-built constant-1 target, the one-copy check settles
// exactly the targets it should, and each one gets the TargetPatch
// (support, cost, gates, cubes) and the patch function satPatch
// computes for the same window.
func TestConstantTargetsMatchPipeline(t *testing.T) {
	cases := []struct {
		name      string
		inst      *Instance
		constants []int // constant value per target, -1 for none
	}{
		{"hand-const1", mustInstance(t, implAndTarget, specAndOr, nil), []int{1}},
		{"unit9", loadTestdata(t, "unit9"), []int{0, -1, 0, 0}},
		{"unit14", loadTestdata(t, "unit14"), []int{0, 0, 0, 0, -1, 0, 0, -1, 0, -1, 0, 0}},
		{"unit17", loadTestdata(t, "unit17"), []int{0, 0, 0, 0, 0, -1, -1, -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "unit17" {
				t.Skip("unit17's pipeline takes seconds; skipped in -short")
			}
			e := &engine{inst: tc.inst, opt: DefaultOptions(), res: &Result{}}
			if err := e.setup(); err != nil {
				t.Fatal(err)
			}
			if feasible, _ := e.checkFeasible(); !feasible {
				t.Fatal("infeasible")
			}
			e.rectifyAllInit()
			if len(e.targets) != len(tc.constants) {
				t.Fatalf("%d targets, want %d", len(e.targets), len(tc.constants))
			}
			for i := range e.targets {
				m0, m1 := e.cofactorMiters(i)
				used := maps.Clone(e.usedSignals)
				if err := e.satPatch(i, m0, m1); err != nil {
					t.Fatalf("target %d: satPatch: %v", i, err)
				}
				want, wantAIG := e.targetPatches[i], e.patchAIGs[i]
				after := e.usedSignals
				e.usedSignals = used
				done, err := e.constantTarget(i, m0, m1)
				if err != nil {
					t.Fatalf("target %d: %v", i, err)
				}
				if done != (tc.constants[i] >= 0) {
					t.Fatalf("target %d: constant=%v, want %v", i, done, tc.constants[i] >= 0)
				}
				if !done {
					e.usedSignals = after
					e.done[i] = true
					continue
				}
				if got := e.targetPatches[i]; !reflect.DeepEqual(got, want) {
					t.Errorf("target %d: one-copy check %+v, pipeline %+v", i, got, want)
				}
				got := e.patchAIGs[i]
				if got.NumPIs() != 0 || wantAIG.NumPIs() != 0 {
					t.Fatalf("target %d: constant patches over %d and %d inputs", i, got.NumPIs(), wantAIG.NumPIs())
				}
				gv, wv := got.EvalLit(got.PO(0), nil), wantAIG.EvalLit(wantAIG.PO(0), nil)
				if gv != wv || gv != (tc.constants[i] == 1) {
					t.Errorf("target %d: one-copy constant %v, pipeline %v, want %d", i, gv, wv, tc.constants[i])
				}
				e.done[i] = true
			}
			if e.stats.ConstantTargets == 0 {
				t.Fatal("no constant target counted")
			}
		})
	}
}

func loadTestdata(t *testing.T, unit string) *Instance {
	t.Helper()
	inst, err := LoadDir(filepath.Join("testdata", unit))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}
