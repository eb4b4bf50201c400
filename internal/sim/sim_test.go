package sim

import (
	"math/rand"
	"testing"

	"ecopatch/internal/sat"
)

// fixedModel adapts a plain assignment to the Model interface.
type fixedModel []bool

func (m fixedModel) ModelBool(l sat.Lit) bool {
	return m[l.Var()] != l.Sign()
}

func TestModelBankFindAndBit(t *testing.T) {
	v := func(i int) sat.Var { return sat.Var(i) }
	watch := []sat.Lit{sat.PosLit(v(0)), sat.NegLit(v(1)), sat.PosLit(v(2))}
	b := NewModelBank(watch, 8)
	if got := b.Find([]sat.Lit{sat.PosLit(v(0))}); got != -1 {
		t.Fatalf("empty bank Find = %d, want -1", got)
	}
	// Pattern 0: v0=1 v1=0 v2=1; pattern 1: v0=0 v1=1 v2=1.
	b.Add(fixedModel{true, false, true})
	b.Add(fixedModel{false, true, true})
	if b.Patterns() != 2 {
		t.Fatalf("Patterns = %d, want 2", b.Patterns())
	}
	cases := []struct {
		assumps []sat.Lit
		want    int
	}{
		{[]sat.Lit{sat.PosLit(v(0)), sat.NegLit(v(1))}, 0},
		{[]sat.Lit{sat.NegLit(v(0)), sat.PosLit(v(1)), sat.PosLit(v(2))}, 1},
		{[]sat.Lit{sat.PosLit(v(2))}, 0}, // both match; lowest index wins
		{[]sat.Lit{sat.PosLit(v(0)), sat.PosLit(v(1))}, -1},
		{[]sat.Lit{sat.NegLit(v(2))}, -1},
		{[]sat.Lit{sat.PosLit(v(7))}, -1}, // unwatched: conservative miss
	}
	for _, tc := range cases {
		if got := b.Find(tc.assumps); got != tc.want {
			t.Errorf("Find(%v) = %d, want %d", tc.assumps, got, tc.want)
		}
	}
	if !b.Bit(sat.PosLit(v(0)), 0) || b.Bit(sat.PosLit(v(0)), 1) {
		t.Error("Bit(v0) wrong")
	}
	if b.Bit(sat.NegLit(v(2)), 0) || b.Bit(sat.NegLit(v(2)), 1) {
		t.Error("Bit(¬v2) wrong")
	}
}

func TestModelBankCapacityAndWordBoundary(t *testing.T) {
	watch := []sat.Lit{sat.PosLit(0)}
	const max = 130 // spans three words
	b := NewModelBank(watch, max)
	if got := len(b.bits[0]); got != 0 {
		t.Fatalf("empty bank row holds %d words, want 0", got)
	}
	for i := 0; i < max; i++ {
		// Only the last pattern sets v0.
		if !b.Add(fixedModel{i == max-1}) {
			t.Fatalf("Add %d refused below capacity", i)
		}
		// Rows grow one word per started 64-model block, not to the cap.
		if got, want := len(b.bits[0]), i/64+1; got != want {
			t.Fatalf("after %d models the row holds %d words, want %d", i+1, got, want)
		}
	}
	if b.Add(fixedModel{true}) {
		t.Fatal("Add above capacity accepted")
	}
	if got := b.Find([]sat.Lit{sat.PosLit(0)}); got != max-1 {
		t.Fatalf("Find across word boundary = %d, want %d", got, max-1)
	}
	if got := b.Find([]sat.Lit{sat.NegLit(0)}); got != 0 {
		t.Fatalf("Find negative = %d, want 0", got)
	}
}

// TestModelBankSoundness is the pattern-bank soundness differential:
// bank real solver models of a random CNF, then check that every
// bank-elided Sat answer is confirmed by a fresh solver solving the
// same formula under the same assumptions.
func TestModelBankSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nVars, nClauses, nQueries = 12, 30, 200
	for round := 0; round < 10; round++ {
		var clauses [][]sat.Lit
		for c := 0; c < nClauses; c++ {
			var cl []sat.Lit
			for k := 0; k < 3; k++ {
				cl = append(cl, sat.MkLit(sat.Var(rng.Intn(nVars)), rng.Intn(2) == 1))
			}
			clauses = append(clauses, cl)
		}
		newSolver := func() *sat.Solver {
			s := sat.New()
			for v := 0; v < nVars; v++ {
				s.NewVar()
			}
			for _, cl := range clauses {
				s.AddClause(cl...)
			}
			return s
		}
		var watch []sat.Lit
		for v := 0; v < nVars; v++ {
			watch = append(watch, sat.PosLit(sat.Var(v)))
		}
		bank := NewModelBank(watch, 64)
		s := newSolver()
		elided, banked := 0, 0
		for q := 0; q < nQueries; q++ {
			var assumps []sat.Lit
			for v := 0; v < nVars; v++ {
				switch rng.Intn(4) {
				case 0:
					assumps = append(assumps, sat.PosLit(sat.Var(v)))
				case 1:
					assumps = append(assumps, sat.NegLit(sat.Var(v)))
				}
			}
			if p := bank.Find(assumps); p >= 0 {
				elided++
				// The banked answer must agree with a real solver.
				if st := newSolver().Solve(assumps...); st != sat.Sat {
					t.Fatalf("round %d query %d: bank pattern %d says Sat, solver says %v (assumps %v)",
						round, q, p, st, assumps)
				}
				// And the banked pattern itself must satisfy the assumptions.
				for _, l := range assumps {
					if !bank.Bit(l, p) {
						t.Fatalf("round %d: pattern %d does not satisfy %v", round, p, l)
					}
				}
				continue
			}
			if s.Solve(assumps...) == sat.Sat {
				bank.Add(s)
				banked++
			}
		}
		if banked == 0 {
			t.Fatalf("round %d: no models banked (degenerate formula?)", round)
		}
		_ = elided // hit rate is formula-dependent; soundness is what's pinned
	}
}

func TestPatternBank(t *testing.T) {
	b := NewPatternBank(3, 70)
	if b.Inputs() != 3 || b.Rounds() != 0 {
		t.Fatalf("fresh bank: inputs=%d rounds=%d", b.Inputs(), b.Rounds())
	}
	for i := 0; i < 70; i++ {
		if !b.Add([]bool{i%2 == 0, i >= 64, true}) {
			t.Fatalf("Add %d refused below capacity", i)
		}
	}
	if b.Add([]bool{true, true, true}) {
		t.Fatal("Add above capacity accepted")
	}
	if b.Add([]bool{true}) {
		t.Fatal("Add with wrong arity accepted")
	}
	if b.Patterns() != 70 || b.Rounds() != 2 {
		t.Fatalf("patterns=%d rounds=%d", b.Patterns(), b.Rounds())
	}
	if b.Word(0, 0) != 0x5555555555555555 {
		t.Fatalf("Word(0,0) = %#x", b.Word(0, 0))
	}
	if b.Word(1, 0) != 0 || b.Word(1, 1) != 0x3f {
		t.Fatalf("Word(1,*) = %#x %#x", b.Word(1, 0), b.Word(1, 1))
	}
	if b.Word(2, 1) != 0x3f {
		t.Fatalf("Word(2,1) = %#x", b.Word(2, 1))
	}
}

func TestCanonKeyEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		sig := make([]uint64, 1+rng.Intn(6))
		for j := range sig {
			sig[j] = rng.Uint64()
		}
		compl := make([]uint64, len(sig))
		for j := range sig {
			compl[j] = ^sig[j]
		}
		k1, _ := CanonKey(sig)
		k2, _ := CanonKey(compl)
		if k1 != k2 {
			t.Fatal("complemented signature keys differently")
		}
		if !CanonEqual(sig, compl) || !CanonEqual(sig, sig) {
			t.Fatal("CanonEqual rejects complement or self")
		}
		perturbed := append([]uint64(nil), sig...)
		perturbed[rng.Intn(len(sig))] ^= 1 << uint(1+rng.Intn(63))
		if CanonEqual(sig, perturbed) {
			t.Fatal("CanonEqual accepts perturbed signature")
		}
	}
	if !CanonEqual(nil, nil) {
		t.Fatal("empty signatures must compare equal")
	}
}
