package eco

import (
	"testing"
)

// TestFunctionalMatchFindsNonStructuralEquiv builds an instance where
// the cheap equivalent of the patch logic is computed through a
// redundant double-XOR, so it does NOT share AIG nodes with the patch
// cone; only CEGAR_min's functional (simulation + SAT) matcher can
// find it.
func TestFunctionalMatchFindsNonStructuralEquiv(t *testing.T) {
	impl := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
wire w1, w2, wAlias;
and (w1, b, c);
xor (w2, w1, c);
xor (wAlias, w2, c);
and (f, a, t_0);
buf (g2, wAlias);
endmodule`
	spec := `
module m (a, b, c, f, g2);
input a, b, c;
output f, g2;
wire w1, w2, wAlias, wp;
and (w1, b, c);
xor (w2, w1, c);
xor (wAlias, w2, c);
and (wp, b, c);
and (f, a, wp);
buf (g2, wAlias);
endmodule`
	// wAlias == b&c functionally but via (w1^c)^c, a distinct AIG
	// structure whose support stays inside the window. Only wAlias is
	// cheap; everything else is expensive.
	costs := map[string]int{
		"a": 50, "b": 50, "c": 50,
		"w1": 40, "w2": 45, "wAlias": 1, "f": 99, "g2": 99,
	}

	inst := mustInstance(t, impl, spec, costs)
	opt := DefaultOptions()
	opt.ForceStructural = true
	res, err := Solve(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("not verified")
	}
	// CEGAR_min's functional matching should discover the cost-1
	// alias for the b&c part of the cone: cost a(50) + wAlias(1).
	if res.TotalCost > 51 {
		t.Fatalf("cost %d, expected 51 via wAlias (support %v)",
			res.TotalCost, res.Patches[0].Support)
	}
}

// TestStructuralPatchConstantMiter covers the degenerate case where
// the miter cofactor is constant (no onset): the patch is a constant
// and needs no support.
func TestStructuralPatchConstantMiter(t *testing.T) {
	impl := `
module m (a, f);
input a;
output f;
wire u;
and (u, a, t_0);
or  (f, a, u);
endmodule`
	// Spec equals impl with t_0 := 0 (or anything): f = a regardless.
	spec := `
module m (a, f);
input a;
output f;
buf (f, a);
endmodule`
	inst := mustInstance(t, impl, spec, nil)
	opt := DefaultOptions()
	opt.ForceStructural = true
	res, err := Solve(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("not verified")
	}
	if len(res.Patches[0].Support) != 0 || res.TotalCost != 0 {
		t.Fatalf("constant patch expected: support=%v cost=%d",
			res.Patches[0].Support, res.TotalCost)
	}
}

// TestBudgetTriggersStructuralFallback drives the engine's timeout
// path end to end: a one-tick patch allotment ends cube enumeration
// for every target that reaches it, forcing the target through §3.6,
// and the result must still verify.
func TestBudgetTriggersStructuralFallback(t *testing.T) {
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
	saved := stageAllot
	defer func() { stageAllot = saved }()
	stageAllot.patch = 1
	res, err := Solve(inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("budget fallback result not verified")
	}
	if res.Stats.StructuralFixes == 0 {
		t.Fatal("expected structural fallbacks under a 1-tick patch allotment")
	}
}

// TestMoveGuidedFallbackVerifies exercises move-guided quantification
// (MaxQuantExpand below the target count) on a 4-target instance; the
// engine must deliver a verified result either via the guided patches
// or via the automatic full-expansion retry.
func TestMoveGuidedFallbackVerifies(t *testing.T) {
	impl := `
module m (a, b, c, d, f, g2, h, k);
input a, b, c, d;
output f, g2, h, k;
and (f, a, t_0);
or  (g2, b, t_1);
xor (h, c, t_2);
and (k, d, t_3);
endmodule`
	spec := `
module m (a, b, c, d, f, g2, h, k);
input a, b, c, d;
output f, g2, h, k;
wire w1, w2, w3, w4;
or  (w1, b, c);
and (f, a, w1);
and (w2, a, c);
or  (g2, b, w2);
xor (w3, a, d);
xor (h, c, w3);
or  (w4, a, b);
and (k, d, w4);
endmodule`
	inst := mustInstance(t, impl, spec, nil)
	opt := DefaultOptions()
	opt.MaxQuantExpand = 1 // force move-guided quantification
	res, err := Solve(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || !res.Verified {
		t.Fatalf("feasible=%v verified=%v", res.Feasible, res.Verified)
	}
}

// TestPatchAllotDegradesNotBogus runs every support algorithm with
// cube enumeration under a 1-tick patch allotment: the work meter must
// hand each pipeline target to the §3.6 structural fallback, giving a
// verified patch, never a silently wrong SAT patch or a hard error.
// unit7's single target is not constant, so it reaches the meter.
func TestPatchAllotDegradesNotBogus(t *testing.T) {
	saved := stageAllot
	defer func() { stageAllot = saved }()
	stageAllot.support, stageAllot.patch = 1, 1
	for _, sup := range []SupportAlgo{SupportAnalyzeFinal, SupportMinimize, SupportExact} {
		opt := DefaultOptions()
		opt.Support = sup
		res, err := Solve(loadTestdata(t, "unit7"), opt)
		if err != nil {
			t.Fatalf("%v: the allotment must degrade, not error: %v", sup, err)
		}
		if len(res.Patches) == 0 {
			t.Fatalf("%v: no patches", sup)
		}
		for _, p := range res.Patches {
			if !p.Structural {
				t.Fatalf("%v: target %s patched by SAT under a 1-tick allotment", sup, p.Target)
			}
		}
		if !res.Verified {
			t.Fatalf("%v: structural fallback result not verified", sup)
		}
	}
}
