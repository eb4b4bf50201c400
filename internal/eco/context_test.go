package eco

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSolveContextPreCancelled feeds an already-cancelled context:
// the engine must stop at the first stage boundary with TimedOut set
// instead of burning the support/patch/verify stages on degraded
// structural work.
func TestSolveContextPreCancelled(t *testing.T) {
	inst := mustInstance(t, implAndTarget, specAndOr, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := SolveContext(ctx, inst, DefaultOptions())
	if err != nil {
		t.Fatalf("cancelled solve must return a partial result, got error: %v", err)
	}
	if !res.TimedOut {
		t.Fatal("TimedOut not set on a cancelled context")
	}
	if len(res.Patches) != 0 {
		t.Fatalf("cancelled solve produced %d patches; stage boundaries ignored", len(res.Patches))
	}
	if res.Verified {
		t.Fatal("cancelled solve cannot be verified")
	}
	// Guard against a regression where cancellation still runs every
	// stage: this instance solves in well under a second, so even a
	// generous bound catches "did all the work anyway" only if the
	// engine grows much bigger stages; the patch-count check above is
	// the real assertion.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled solve took %v", elapsed)
	}
}

// TestSolveContextCancelSkipsStructuralFallback cancels a run and
// interrupts its solvers, as the deadline watcher does, before the
// target's pipeline: the interrupted SAT calls answer Unknown, which
// rectifyOne must report as errCancelled, without building the
// structural fallback nobody will read.
func TestSolveContextCancelSkipsStructuralFallback(t *testing.T) {
	inst := mustInstance(t, implAndTarget, specAndOr, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &engine{inst: inst, opt: DefaultOptions(), ctx: ctx, res: &Result{}}
	if err := e.setup(); err != nil {
		t.Fatal(err)
	}
	e.rectifyAllInit()
	e.group.interruptAll()
	if err := e.rectifyOne(0); !errors.Is(err, errCancelled) {
		t.Fatalf("rectifyOne on a cancelled run: err = %v, want errCancelled", err)
	}
	if e.stats.StructuralFixes != 0 || e.patchAIGs[0] != nil {
		t.Fatalf("cancelled run built a patch (structural fixes %d)", e.stats.StructuralFixes)
	}
}

// TestSolveContextUncancelledUnaffected pins the baseline: a live
// context with no deadline must not trip any of the new stage checks.
func TestSolveContextUncancelledUnaffected(t *testing.T) {
	inst := mustInstance(t, implAndTarget, specAndOr, nil)
	res, err := SolveContext(context.Background(), inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.TimedOut {
		t.Fatalf("verified=%v timedOut=%v; want verified, not timed out", res.Verified, res.TimedOut)
	}
}

// TestVerifyInterruptedUnverified stops the run's solver group before
// the final verification, as an expired deadline does: the sweep that
// fronts the equivalence check registers its solver with the group, so
// it is interrupted too, and the patch must come back unverified
// rather than proven by a sweep that ignored the deadline.
func TestVerifyInterruptedUnverified(t *testing.T) {
	// The spec builds a^b from OR/NAND/AND; the patch synthesized over
	// a, b has another structure, so the verification miter does not
	// hash to equal outputs and reaches the sweep.
	inst := mustInstance(t, `
module m (a, b, c, f);
input a, b, c;
output f;
xor (f, t_0, c);
endmodule`, `
module m (a, b, c, f);
input a, b, c;
output f;
wire w1, w2, w3;
or   (w1, a, b);
nand (w2, a, b);
and  (w3, w1, w2);
xor  (f, w3, c);
endmodule`, nil)
	opt := DefaultOptions()
	opt.MaxQuantExpand = 8
	e := &engine{inst: inst, opt: opt, ctx: context.Background(), res: &Result{}}
	if err := e.setup(); err != nil {
		t.Fatal(err)
	}
	if feasible, _ := e.checkFeasible(); !feasible {
		t.Fatal("infeasible")
	}
	if err := e.rectifyAll(false); err != nil {
		t.Fatal(err)
	}
	before := e.group.stats().SolveCalls
	ok, err := e.verify()
	if err != nil || !ok {
		t.Fatalf("uninterrupted verification: ok=%v err=%v", ok, err)
	}
	if e.group.stats().SolveCalls == before {
		t.Fatal("verification settled structurally; the test needs a miter that reaches the sweep")
	}
	e.group.interruptAll()
	ok, err = e.verify()
	if err != nil {
		t.Fatalf("interrupted verification must degrade, got error: %v", err)
	}
	if ok {
		t.Fatal("interrupted verification reported the patch verified")
	}
}
