package eco

import (
	"errors"
	"testing"

	"ecopatch/internal/sat"
)

// TestMinimizerInterruptedSolverReuse pins the scratch-solver reuse
// contract of minimize_assumptions: on an interrupted solver every
// query answers Unknown, which the minimizer must surface as
// errCancelled (not a wrong support), and after ClearInterrupt the same solver —
// same clauses, same scratch buffers — must minimize correctly. The
// engine reuses one solver across the expression-(2) check, both
// minimization passes and last-gasp, so a stale interrupt here would
// silently poison a whole job.
func TestMinimizerInterruptedSolverReuse(t *testing.T) {
	s := sat.New()
	a1 := sat.PosLit(s.NewVar())
	a2 := sat.PosLit(s.NewVar())
	// ¬a2: any assumption set containing a2 is UNSAT, so the minimal
	// support is {a2} alone.
	s.AddClause(a2.Not())

	s.Interrupt()
	m := &minimizer{s: s}
	if _, err := m.minimize([]sat.Lit{a1, a2}); !errors.Is(err, errCancelled) {
		t.Fatalf("interrupted minimize err = %v, want errCancelled", err)
	}

	s.ClearInterrupt()
	m = &minimizer{s: s}
	A := []sat.Lit{a1, a2}
	kept, err := m.minimize(A)
	if err != nil {
		t.Fatalf("post-clear minimize error: %v", err)
	}
	if kept != 1 || A[0] != a2 {
		t.Fatalf("post-clear minimize kept %d, A[0]=%v; want the single assumption a2", kept, A[0])
	}

	// minimizeLinear shares the same reuse contract.
	s.Interrupt()
	if _, err := minimizeLinear(s, nil, []sat.Lit{a1, a2}, nil); !errors.Is(err, errCancelled) {
		t.Fatalf("interrupted minimizeLinear err = %v, want errCancelled", err)
	}
	s.ClearInterrupt()
	kept, err = minimizeLinear(s, nil, []sat.Lit{a1, a2}, nil)
	if err != nil {
		t.Fatalf("post-clear minimizeLinear error: %v", err)
	}
	if kept != 1 {
		t.Fatalf("post-clear minimizeLinear kept %d, want 1", kept)
	}
}
