package eco

import (
	"fmt"
	"math/rand"
	"testing"

	"ecopatch/internal/netlist"
)

// randomVerdictInstance builds an instance with 2–5 inputs, nT targets
// and 1–2 outputs. The specification's outputs are random functions of
// the inputs drawn independently of the implementation, so most
// instances are infeasible. The implementation reads every target.
func randomVerdictInstance(rng *rand.Rand, nT int) *Instance {
	nIn := 2 + rng.Intn(4)
	inputs := []string{"a", "b", "c", "d", "e"}[:nIn]
	kinds := []netlist.GateKind{netlist.GateAnd, netlist.GateOr, netlist.GateXor, netlist.GateNand, netlist.GateNor}
	nOut := 1 + rng.Intn(2)
	outputs := []string{"f0", "f1"}[:nOut]

	build := func(name string, seeds []string) *netlist.Netlist {
		n := &netlist.Netlist{Name: name, Inputs: append([]string(nil), inputs...), Outputs: outputs}
		pool := append([]string(nil), inputs...)
		pick := func() string { return pool[rng.Intn(len(pool))] }
		gate := func(out string, ins ...string) {
			n.Gates = append(n.Gates, netlist.Gate{Kind: kinds[rng.Intn(len(kinds))], Out: out, Ins: ins})
		}
		wire := func(ins ...string) {
			w := fmt.Sprintf("w%d", len(n.Wires))
			n.Wires = append(n.Wires, w)
			gate(w, ins...)
			pool = append(pool, w)
		}
		for i := 0; i < 1+rng.Intn(4); i++ {
			wire(pick(), pick())
		}
		// Each seed (a target) is read by its own gate, after the
		// random logic, and outputs read the newest signals, so the
		// targets reach an output more often than not.
		for _, s := range seeds {
			wire(s, pick())
		}
		for _, o := range outputs {
			gate(o, pool[len(pool)-1-rng.Intn(2)], pick())
		}
		return n
	}
	targets := make([]string, nT)
	for i := range targets {
		targets[i] = fmt.Sprintf("t_%d", i)
	}
	w := netlist.NewWeights()
	for _, s := range inputs {
		w.Set(s, 1+rng.Intn(9))
	}
	inst := &Instance{Name: "verdict", Impl: build("impl", targets), Spec: build("spec", nil), Weights: w}
	if inst.Check() != nil || len(inst.Impl.Targets()) != nT {
		return nil
	}
	return inst
}

// bruteFeasible decides ∀x ∃t: impl(x, t) = spec(x) by enumeration.
func bruteFeasible(t *testing.T, inst *Instance) bool {
	t.Helper()
	impl, err := netlist.ToAIG(inst.Impl)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := netlist.ToAIG(inst.Spec)
	if err != nil {
		t.Fatal(err)
	}
	nIn, nT := len(inst.Impl.Inputs), len(impl.Targets)
	in := make([]bool, nIn+nT)
	for x := 0; x < 1<<nIn; x++ {
		for j := 0; j < nIn; j++ {
			in[j] = x>>j&1 == 1
		}
		want := spec.G.Eval(in[:nIn])
		found := false
		for tv := 0; tv < 1<<nT && !found; tv++ {
			for j := 0; j < nT; j++ {
				in[nIn+j] = tv>>j&1 == 1
			}
			got := impl.G.Eval(in)
			found = true
			for o := range want {
				found = found && got[o] == want[o]
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestFeasibilityVerdictBruteForce checks the engine's verdict on
// expression (1) against enumeration on small random instances, most
// of them infeasible, under every support algorithm, with and without
// the forced structural path. The default MaxQuantExpand takes the
// lazy path (the verified patch certifies feasibility; the check runs
// only after a failed verification); MaxQuantExpand 1 on three
// targets runs the check first. A feasible instance must come back
// verified, an infeasible one with no patches and no error.
func TestFeasibilityVerdictBruteForce(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 80
	}
	rng := rand.New(rand.NewSource(30))
	var nInfeasible, nFeasible int
	for iter := 0; iter < n; iter++ {
		nT := 1 + iter%3
		inst := randomVerdictInstance(rng, nT)
		if inst == nil {
			continue
		}
		want := bruteFeasible(t, inst)
		if want {
			nFeasible++
		} else {
			nInfeasible++
		}
		expands := []int{8}
		if nT == 3 {
			expands = append(expands, 1)
		}
		for _, algo := range []SupportAlgo{SupportAnalyzeFinal, SupportMinimize, SupportExact} {
			for _, structural := range []bool{false, true} {
				for _, expand := range expands {
					opt := DefaultOptions()
					opt.Support = algo
					opt.ForceStructural = structural
					opt.MaxQuantExpand = expand
					name := fmt.Sprintf("iter %d (%d targets) %v structural=%v expand=%d",
						iter, nT, algo, structural, expand)
					res, err := Solve(inst, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.Feasible != want || res.TimedOut {
						t.Fatalf("%s: feasible=%v timedOut=%v, brute force says %v",
							name, res.Feasible, res.TimedOut, want)
					}
					if !want {
						if len(res.Patches) != 0 || res.Patch != nil {
							t.Fatalf("%s: infeasible result carries %d patches", name, len(res.Patches))
						}
						continue
					}
					if !res.Verified {
						t.Fatalf("%s: feasible instance not verified", name)
					}
					if ok, err := VerifyPatch(inst, res.Patch); err != nil || !ok {
						t.Fatalf("%s: independent check rejected the patch (ok=%v err=%v)", name, ok, err)
					}
				}
			}
		}
	}
	// Both verdicts must be exercised, or the oracle proves little.
	if nInfeasible < n/4 || nFeasible == 0 {
		t.Fatalf("verdict mix too thin: %d infeasible, %d feasible", nInfeasible, nFeasible)
	}
	t.Logf("%d infeasible, %d feasible", nInfeasible, nFeasible)
}
