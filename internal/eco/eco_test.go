package eco

import (
	"strings"
	"testing"

	"ecopatch/internal/netlist"
)

// mustInstance builds an instance from verilog source strings with
// unit weights unless overridden.
func mustInstance(t *testing.T, implSrc, specSrc string, costs map[string]int) *Instance {
	t.Helper()
	impl, err := netlist.ParseString(implSrc)
	if err != nil {
		t.Fatalf("impl parse: %v", err)
	}
	spec, err := netlist.ParseString(specSrc)
	if err != nil {
		t.Fatalf("spec parse: %v", err)
	}
	w := netlist.NewWeights()
	for k, v := range costs {
		w.Set(k, v)
	}
	return &Instance{Name: "test", Impl: impl, Spec: spec, Weights: w}
}

const implAndTarget = `
module m (a, b, f);
input a, b;
output f;
and (f, a, t_0);
endmodule`

const specAndOr = `
module m (a, b, f);
input a, b;
output f;
wire w;
or (w, a, b);
and (f, a, w);
endmodule`

func allAlgoOptions() map[string]Options {
	base := DefaultOptions()
	minimize := base
	baseline := base
	baseline.Support = SupportAnalyzeFinal
	exact := base
	exact.Support = SupportExact
	interp := base
	interp.Patch = PatchInterpolation
	structural := base
	structural.ForceStructural = true
	noWindow := base
	noWindow.Window = false
	return map[string]Options{
		"baseline":   baseline,
		"minimize":   minimize,
		"exact":      exact,
		"interp":     interp,
		"structural": structural,
		"noWindow":   noWindow,
	}
}

func TestSingleTargetAllAlgorithms(t *testing.T) {
	for name, opt := range allAlgoOptions() {
		t.Run(name, func(t *testing.T) {
			inst := mustInstance(t, implAndTarget, specAndOr, nil)
			res, err := Solve(inst, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Feasible {
				t.Fatal("instance should be feasible")
			}
			if !res.Verified {
				t.Fatalf("patch did not verify; patch:\n%s", res.Patch)
			}
			// Independent verification through the netlist splice.
			ok, err := VerifyPatch(inst, res.Patch)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("VerifyPatch rejected the patch:\n%s", res.Patch)
			}
		})
	}
}

func TestInfeasibleInstance(t *testing.T) {
	// f = a & t_0 can never equal !a (at a=0 the output is 0, spec 1).
	impl := `
module m (a, f);
input a;
output f;
and (f, a, t_0);
endmodule`
	spec := `
module m (a, f);
input a;
output f;
not (f, a);
endmodule`
	inst := mustInstance(t, impl, spec, nil)
	res, err := Solve(inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("instance should be infeasible")
	}
}

func TestCostAwareSupportSelection(t *testing.T) {
	// Two functionally adequate divisors: wCheap (cost 1) and wExp
	// (cost 50). Spec wants t_0 == b|c. Both wires compute b|c but
	// with different structure so they stay distinct divisors.
	impl := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
wire wCheap, wExp, wx;
or  (wCheap, b, c);
or  (wx, c, b);
or  (wExp, wx, b);
and (f, a, t_0);
and (g2, wCheap, wExp);
endmodule`
	spec := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
wire wCheap, wExp, wx, wn;
or  (wCheap, b, c);
or  (wx, c, b);
or  (wExp, wx, b);
or  (wn, b, c);
and (f, a, wn);
and (g2, wCheap, wExp);
endmodule`
	costs := map[string]int{
		"a": 5, "b": 20, "c": 20, "wCheap": 1, "wExp": 50, "wx": 45,
		"f": 90, "g2": 90, // outputs alias b|c too; price them out
	}
	for _, algo := range []SupportAlgo{SupportMinimize, SupportExact} {
		opt := DefaultOptions()
		opt.Support = algo
		inst := mustInstance(t, impl, spec, costs)
		res, err := Solve(inst, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("%v: not verified", algo)
		}
		if len(res.Patches) != 1 {
			t.Fatalf("%v: %d patches", algo, len(res.Patches))
		}
		sup := res.Patches[0].Support
		if len(sup) != 1 || sup[0] != "wCheap" {
			t.Fatalf("%v: support = %v, want [wCheap]", algo, sup)
		}
		if res.TotalCost != 1 {
			t.Fatalf("%v: cost = %d, want 1", algo, res.TotalCost)
		}
	}
}

func TestExactBeatsGreedyOnTrap(t *testing.T) {
	// Construct a case where cheap divisors individually look good but
	// a single mid-priced divisor is the true optimum:
	// spec patch = b XOR c. Divisors: b (cost 2), c (cost 2),
	// wXor = b^c (cost 3). minimize_assumptions, scanning ascending
	// cost, commits to {b, c} (total 4); SAT_prune must find {wXor}.
	impl := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
wire wXor;
xor (wXor, b, c);
and (f, a, t_0);
buf (g2, wXor);
endmodule`
	spec := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
wire wXor;
xor (wXor, b, c);
and (f, a, wXor);
buf (g2, wXor);
endmodule`
	costs := map[string]int{"a": 100, "b": 2, "c": 2, "wXor": 3, "f": 100, "g2": 100}

	optMin := DefaultOptions()
	optMin.Support = SupportMinimize
	optMin.LastGasp = false
	instMin := mustInstance(t, impl, spec, costs)
	resMin, err := Solve(instMin, optMin)
	if err != nil {
		t.Fatal(err)
	}
	if !resMin.Verified {
		t.Fatal("minimize: not verified")
	}

	optEx := DefaultOptions()
	optEx.Support = SupportExact
	instEx := mustInstance(t, impl, spec, costs)
	resEx, err := Solve(instEx, optEx)
	if err != nil {
		t.Fatal(err)
	}
	if !resEx.Verified {
		t.Fatal("exact: not verified")
	}
	if resEx.TotalCost != 3 {
		t.Fatalf("exact cost = %d, want 3 (support %v)", resEx.TotalCost, resEx.Patches[0].Support)
	}
	if resEx.TotalCost > resMin.TotalCost {
		t.Fatalf("exact (%d) worse than minimal (%d)", resEx.TotalCost, resMin.TotalCost)
	}
}

func TestMultiTarget(t *testing.T) {
	// Two targets feeding different outputs.
	impl := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
and (f, a, t_0);
or  (g2, c, t_1);
endmodule`
	spec := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
wire w1, w2;
or  (w1, b, c);
and (f, a, w1);
and (w2, a, b);
or  (g2, c, w2);
endmodule`
	for name, opt := range allAlgoOptions() {
		t.Run(name, func(t *testing.T) {
			inst := mustInstance(t, impl, spec, nil)
			res, err := Solve(inst, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Feasible || !res.Verified {
				t.Fatalf("feasible=%v verified=%v", res.Feasible, res.Verified)
			}
			if len(res.Patches) != 2 {
				t.Fatalf("patches = %d", len(res.Patches))
			}
			ok, err := VerifyPatch(inst, res.Patch)
			if err != nil || !ok {
				t.Fatalf("VerifyPatch: ok=%v err=%v", ok, err)
			}
		})
	}
}

func TestConstantPatch(t *testing.T) {
	// Spec forces t_0 to behave as constant 1 on the care set.
	impl := `
module m (a, f);
input a;
output f;
and (f, a, t_0);
endmodule`
	spec := `
module m (a, f);
input a;
output f;
buf (f, a);
endmodule`
	inst := mustInstance(t, impl, spec, nil)
	res, err := Solve(inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("not verified")
	}
	if len(res.Patches[0].Support) != 0 {
		t.Fatalf("constant patch needs no support, got %v", res.Patches[0].Support)
	}
	if res.TotalCost != 0 {
		t.Fatalf("cost = %d", res.TotalCost)
	}
}

func TestStructuralPatchPIsOnly(t *testing.T) {
	opt := DefaultOptions()
	opt.ForceStructural = true
	opt.CEGARMin = false
	inst := mustInstance(t, implAndTarget, specAndOr, nil)
	res, err := Solve(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("structural patch did not verify")
	}
	if !res.Patches[0].Structural {
		t.Fatal("patch not marked structural")
	}
	for _, s := range res.Patches[0].Support {
		if s != "a" && s != "b" {
			t.Fatalf("PI-only structural patch uses %q", s)
		}
	}
}

func TestCEGARMinUsesCheapInternalSignal(t *testing.T) {
	// Structural patch over PIs would cost a lot (inputs cost 50);
	// the internal wire wOr (cost 1) computes exactly what the patch
	// cone needs, so CEGAR_min should cut there.
	impl := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
wire wOr;
or  (wOr, b, c);
and (f, a, t_0);
buf (g2, wOr);
endmodule`
	spec := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
wire wOr;
or  (wOr, b, c);
and (f, a, wOr);
buf (g2, wOr);
endmodule`
	costs := map[string]int{"a": 50, "b": 50, "c": 50, "wOr": 1}

	optNo := DefaultOptions()
	optNo.ForceStructural = true
	optNo.CEGARMin = false
	instNo := mustInstance(t, impl, spec, costs)
	resNo, err := Solve(instNo, optNo)
	if err != nil {
		t.Fatal(err)
	}

	optYes := DefaultOptions()
	optYes.ForceStructural = true
	optYes.CEGARMin = true
	instYes := mustInstance(t, impl, spec, costs)
	resYes, err := Solve(instYes, optYes)
	if err != nil {
		t.Fatal(err)
	}
	if !resNo.Verified || !resYes.Verified {
		t.Fatalf("verified: no=%v yes=%v", resNo.Verified, resYes.Verified)
	}
	if resYes.TotalCost >= resNo.TotalCost {
		t.Fatalf("CEGAR_min did not reduce cost: %d vs %d", resYes.TotalCost, resNo.TotalCost)
	}
}

func TestLastGaspImproves(t *testing.T) {
	// minimize_assumptions may keep an expensive divisor; last-gasp
	// should swap it for a cheaper equivalent when one exists.
	impl := `
module m (a, b, c, f, g2, h);
input a, b, c;
output f, g2, h;
wire wCheap, wExpA, wExpB;
and (wExpA, b, c);
and (wExpB, c, b, b);
and (wCheap, b, c);
and (f, a, t_0);
buf (g2, wExpA);
buf (h, wCheap);
endmodule`
	spec := `
module m (a, b, c, f, g2, h);
input a, b, c;
output f, g2, h;
wire wCheap, wExpA, wExpB, wp;
and (wExpA, b, c);
and (wExpB, c, b, b);
and (wCheap, b, c);
and (wp, b, c);
and (f, a, wp);
buf (g2, wExpA);
buf (h, wCheap);
endmodule`
	_ = spec
	// Note: wCheap and wExpA hash to the same AIG node, so divisor
	// dedup keeps the cheapest automatically; this test instead checks
	// that enabling LastGasp never makes the result worse.
	costs := map[string]int{"a": 9, "b": 10, "c": 10, "wCheap": 1, "wExpA": 30, "wExpB": 40}
	var withCost, withoutCost int
	for _, lastGasp := range []bool{false, true} {
		opt := DefaultOptions()
		opt.LastGasp = lastGasp
		inst := mustInstance(t, impl, spec, costs)
		res, err := Solve(inst, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatal("not verified")
		}
		if lastGasp {
			withCost = res.TotalCost
		} else {
			withoutCost = res.TotalCost
		}
	}
	if withCost > withoutCost {
		t.Fatalf("last gasp made cost worse: %d > %d", withCost, withoutCost)
	}
}

func TestPatchNetlistWellFormed(t *testing.T) {
	inst := mustInstance(t, implAndTarget, specAndOr, nil)
	res, err := Solve(inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := res.Patch
	if p.Name != "patch" {
		t.Fatalf("patch module name %q", p.Name)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("patch invalid: %v\n%s", err, p)
	}
	if len(p.Outputs) != 1 || p.Outputs[0] != "t_0" {
		t.Fatalf("patch outputs = %v", p.Outputs)
	}
	// Round-trip through text.
	p2, err := netlist.ParseString(p.String())
	if err != nil {
		t.Fatalf("patch reparse: %v\n%s", err, p)
	}
	ok, err := VerifyPatch(inst, p2)
	if err != nil || !ok {
		t.Fatalf("reparsed patch: ok=%v err=%v", ok, err)
	}
}

func TestVerifyPatchRejectsBadPatch(t *testing.T) {
	inst := mustInstance(t, implAndTarget, specAndOr, nil)
	bad, err := netlist.ParseString(`
module patch (a, t_0);
input a;
output t_0;
not (t_0, a);
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := VerifyPatch(inst, bad)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("wrong patch accepted")
	}
}

func TestVerifyPatchRejectsTargetDependence(t *testing.T) {
	// A patch reading a signal in the targets' TFO must be rejected.
	impl := `
module m (a, b, f);
input a, b;
output f;
wire w;
and (w, a, t_0);
or  (f, w, b);
endmodule`
	spec := `
module m (a, b, f);
input a, b;
output f;
wire w;
and (w, a, b);
or  (f, w, b);
endmodule`
	inst := mustInstance(t, impl, spec, nil)
	cyclic, err := netlist.ParseString(`
module patch (w, t_0);
input w;
output t_0;
buf (t_0, w);
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyPatch(inst, cyclic); err == nil ||
		!strings.Contains(err.Error(), "depends on a target") {
		t.Fatalf("cyclic patch not rejected: %v", err)
	}
}

func TestInstanceCheckErrors(t *testing.T) {
	good := mustInstance(t, implAndTarget, specAndOr, nil)
	if err := good.Check(); err != nil {
		t.Fatal(err)
	}
	// No targets.
	noTargets := mustInstance(t, specAndOr, specAndOr, nil)
	if err := noTargets.Check(); err == nil {
		t.Fatal("missing targets not reported")
	}
	// PI mismatch.
	specBad, _ := netlist.ParseString(`
module m (a, f);
input a;
output f;
buf (f, a);
endmodule`)
	mismatch := &Instance{
		Name: "x", Impl: good.Impl, Spec: specBad,
		Weights: netlist.NewWeights(),
	}
	if err := mismatch.Check(); err == nil {
		t.Fatal("PI mismatch not reported")
	}
}

func TestStatsPopulated(t *testing.T) {
	inst := mustInstance(t, implAndTarget, specAndOr, nil)
	res, err := Solve(inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Divisors == 0 {
		t.Fatal("no divisors counted")
	}
	if res.Stats.SATCalls == 0 && res.Stats.MinimizeCalls == 0 {
		t.Fatal("no SAT activity recorded")
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
}

func TestNonWindowOutputDifferenceIsInfeasible(t *testing.T) {
	// The second output is outside the target's TFO and differs from
	// the spec, so no patch can fix it: the full-miter feasibility
	// check must catch this even though windowing drops that output
	// from the patching miter.
	impl := `
module m (a, b, f, g2);
input a, b;
output f, g2;
and (f, a, t_0);
buf (g2, b);
endmodule`
	spec := `
module m (a, b, f, g2);
input a, b;
output f, g2;
wire w;
or  (w, a, b);
and (f, a, w);
not (g2, b);
endmodule`
	inst := mustInstance(t, impl, spec, nil)
	res, err := Solve(inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("non-window mismatch not detected")
	}
}

func TestWindowStatsReflectPruning(t *testing.T) {
	// Two independent outputs; only one is in the target's TFO.
	impl := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
wire w1;
and (w1, b, c);
and (f, a, t_0);
buf (g2, w1);
endmodule`
	spec := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
wire w1, w2;
and (w1, b, c);
or  (w2, b, c);
and (f, a, w2);
buf (g2, w1);
endmodule`
	inst := mustInstance(t, impl, spec, nil)
	opt := DefaultOptions()
	res, err := Solve(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WindowPOs != 1 {
		t.Fatalf("window POs = %d, want 1", res.Stats.WindowPOs)
	}
	if !res.Verified {
		t.Fatal("not verified")
	}

	optNoWin := DefaultOptions()
	optNoWin.Window = false
	inst2 := mustInstance(t, impl, spec, nil)
	res2, err := Solve(inst2, optNoWin)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.WindowPOs != 2 {
		t.Fatalf("no-window POs = %d, want 2", res2.Stats.WindowPOs)
	}
	if res2.Stats.Divisors < res.Stats.Divisors {
		t.Fatalf("window should not offer more divisors than the full netlist: %d vs %d",
			res.Stats.Divisors, res2.Stats.Divisors)
	}
}

func TestInterpolationMultiTarget(t *testing.T) {
	impl := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
and (f, a, t_0);
or  (g2, c, t_1);
endmodule`
	spec := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
wire w1, w2;
xor (w1, b, c);
and (f, a, w1);
and (w2, a, b);
or  (g2, c, w2);
endmodule`
	inst := mustInstance(t, impl, spec, nil)
	opt := DefaultOptions()
	opt.Patch = PatchInterpolation
	res, err := Solve(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("interpolation multi-target patch not verified")
	}
	ok, err := VerifyPatch(inst, res.Patch)
	if err != nil || !ok {
		t.Fatalf("VerifyPatch: ok=%v err=%v", ok, err)
	}
}

func TestUnionCostAccounting(t *testing.T) {
	// Both targets need signal b; the union cost counts it once.
	impl := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
and (f, a, t_0);
or  (g2, c, t_1);
endmodule`
	spec := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
and (f, a, b);
or  (g2, c, b);
endmodule`
	costs := map[string]int{"a": 50, "b": 7, "c": 50, "f": 99, "g2": 99}
	inst := mustInstance(t, impl, spec, costs)
	res, err := Solve(inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("not verified")
	}
	if res.TotalCost != 7 {
		t.Fatalf("union cost = %d, want 7 (b paid once); patches %+v",
			res.TotalCost, res.Patches)
	}
	// Per-target accounting: the first target pays, the second reuses.
	paid := 0
	for _, p := range res.Patches {
		paid += p.Cost
	}
	if paid != 7 {
		t.Fatalf("sum of per-target costs = %d, want 7", paid)
	}
	if len(res.Patch.Inputs) != 1 || res.Patch.Inputs[0] != "b" {
		t.Fatalf("patch module inputs = %v, want [b]", res.Patch.Inputs)
	}
}

func TestOrderedDivisorsDiscount(t *testing.T) {
	inst := mustInstance(t, implAndTarget, specAndOr, map[string]int{"a": 3, "b": 9})
	opt := DefaultOptions()
	e := &engine{inst: inst, opt: opt, res: &Result{}}
	if err := e.setup(); err != nil {
		t.Fatal(err)
	}
	e.rectifyAllInit()
	e.usedSignals["b"] = true
	divs := e.orderedDivisors()
	// b is already paid for: its effective cost drops to 0 and it
	// sorts first.
	if divs[0].name != "b" || divs[0].cost != 0 {
		t.Fatalf("discounted divisor ordering wrong: %+v", divs)
	}
}

func TestResultElapsedAndPatchNames(t *testing.T) {
	impl := `
module m (a, b, c, f, g2, h);
input a, b, c;
output f, g2, h;
and (f, a, t_0);
or  (g2, b, t_1);
xor (h, c, t_2);
endmodule`
	spec := `
module m (a, b, c, f, g2, h);
input a, b, c;
output f, g2, h;
wire w;
and (w, b, c);
and (f, a, w);
or  (g2, b, c);
xor (h, c, a);
endmodule`
	inst := mustInstance(t, impl, spec, nil)
	res, err := Solve(inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("not verified")
	}
	if len(res.Patch.Outputs) != 3 {
		t.Fatalf("patch outputs = %v", res.Patch.Outputs)
	}
	for i, want := range []string{"t_0", "t_1", "t_2"} {
		if res.Patch.Outputs[i] != want {
			t.Fatalf("patch output %d = %q, want %q", i, res.Patch.Outputs[i], want)
		}
	}
}
