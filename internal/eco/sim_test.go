package eco

import (
	"context"
	"testing"

	"ecopatch/internal/aig"
)

// TestSimSerialReproducible pins that a run is deterministic against
// itself with the simulation layer in the loop: elision and pruning are
// driven by banked models and a per-window seeded RNG, never by wall
// clock or map order.
func TestSimSerialReproducible(t *testing.T) {
	for name, tc := range parallelCases(t) {
		t.Run(name, func(t *testing.T) {
			var snaps []string
			for run := 0; run < 2; run++ {
				res, err := Solve(tc.inst, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Verified {
					t.Fatal("not verified")
				}
				snaps = append(snaps, snapshotResult(res))
			}
			if snaps[0] != snaps[1] {
				t.Fatalf("run not reproducible:\nrun0:\n%s\nrun1:\n%s", snaps[0], snaps[1])
			}
		})
	}
}

// TestPruneOneSolverPerWindow pins that divisor pruning proves all of
// one window's candidate drops on a single incremental solver: a
// divisor set with several constant and duplicate members registers
// exactly one solver, and every redundant member is dropped.
func TestPruneOneSolverPerWindow(t *testing.T) {
	inst := mustInstance(t, implAndTarget, specAndOr, nil)
	e := &engine{inst: inst, opt: DefaultOptions(), ctx: context.Background(), res: &Result{}}
	if err := e.setup(); err != nil {
		t.Fatal(err)
	}
	w := e.w
	a, b := w.PI(e.xPIs[0]), w.PI(e.xPIs[1])
	ab, anb, nab := w.And(a, b), w.And(a, b.Not()), w.And(a.Not(), b)
	or := w.Or(a, b)
	var divs []divisor
	add := func(edges ...aig.Lit) {
		for _, l := range edges {
			divs = append(divs, divisor{name: string(rune('a' + len(divs))), edge: l, cost: len(divs)})
		}
	}
	add(a, b, ab, anb, nab, or)                                        // pairwise distinct up to complement
	add(w.And(a, ab), w.And(b, ab), w.Or(a, ab).Not())                 // duplicates of ab, ab, ¬a
	add(w.And(ab, a.Not()), w.And(anb, b), w.Or(or, w.Or(a, b.Not()))) // false, false, true

	m := e.group.mark()
	kept := e.pruneDivisors(0, divs)
	if got := len(e.group.solvers) - m; got != 1 {
		t.Fatalf("pruning registered %d solvers, want 1", got)
	}
	if len(kept) != 6 {
		t.Fatalf("pruning kept %d of %d divisors, want the 6 distinct ones: %+v", len(kept), len(divs), kept)
	}
	for j, d := range kept {
		if d != divs[j] {
			t.Fatalf("kept[%d] = %+v, want %+v", j, d, divs[j])
		}
	}
}
