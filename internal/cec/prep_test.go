package cec

import (
	"testing"

	"ecopatch/internal/aig"
	"ecopatch/internal/sat"
)

// prepCheckOpts enables preprocessing on the equivalence checker.
func prepCheckOpts() CheckOptions {
	return CheckOptions{Preprocess: sat.DefaultPrepConfig()}
}

// swappedMultipliers builds an n x n array multiplier and its
// operand-swapped twin in one AIG and returns their product edges. The
// partial products hash together but the sums do not, and at n = 6 the
// fraig front end gives up on the outputs within its per-query budget,
// so an equivalence check over the pair still reaches its final query.
func swappedMultipliers(n int) (*aig.AIG, []aig.Lit, []aig.Lit) {
	g := aig.New()
	as := make([]aig.Lit, n)
	bs := make([]aig.Lit, n)
	for i := 0; i < n; i++ {
		as[i] = g.AddPI("a")
	}
	for i := 0; i < n; i++ {
		bs[i] = g.AddPI("b")
	}
	mul := func(x, y []aig.Lit) []aig.Lit {
		acc := make([]aig.Lit, 2*n)
		for i := range acc {
			acc[i] = aig.ConstFalse
		}
		for j := 0; j < n; j++ {
			carry := aig.ConstFalse
			for i := 0; i < n; i++ {
				pp := g.And(x[i], y[j])
				s := acc[i+j]
				acc[i+j] = g.Xor(g.Xor(s, pp), carry)
				carry = g.Or(g.And(s, pp), g.And(carry, g.Or(s, pp)))
			}
			acc[j+n] = carry
		}
		return acc
	}
	return g, mul(as, bs), mul(bs, as)
}

// TestCheckPrepParityEquivalent runs an equivalent pair through
// CheckLits with preprocessing off and on: same verdict, and the prep
// run reports simplification work. The pair is swappedMultipliers(6),
// whose final query reaches the preprocessor.
func TestCheckPrepParityEquivalent(t *testing.T) {
	g, xs, ys := swappedMultipliers(6)

	plain, err := CheckLits(g, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := CheckLitsOpt(g, xs, ys, prepCheckOpts())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Equivalent != prep.Equivalent {
		t.Fatalf("verdict mismatch: plain=%v prep=%v", plain.Equivalent, prep.Equivalent)
	}
	if !prep.Equivalent {
		t.Fatal("operand-swapped multipliers reported inequivalent")
	}
	if prep.Prep.Rounds == 0 {
		t.Fatal("prep run recorded no simplification rounds")
	}
}

// TestCheckPrepCounterexample pins model reconstruction through the
// checker: an inequivalent pair solved on the simplified formula must
// still return a counterexample that distinguishes the two functions
// on the original graph (PI vars are frozen; eliminated inner vars
// are re-derived for the readback).
func TestCheckPrepCounterexample(t *testing.T) {
	g := aig.New()
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	// Deep enough that BVE has internal nodes to chew on.
	x := g.Or(g.And(a, b), g.And(b.Not(), c))
	y := g.Or(g.And(a, b), g.And(b.Not(), c.Not()))
	g.AddPO("x", x)
	g.AddPO("y", y)

	res, err := CheckLitsOpt(g, []aig.Lit{x}, []aig.Lit{y}, prepCheckOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("distinct functions reported equivalent")
	}
	if len(res.Counterexample) != g.NumPIs() {
		t.Fatalf("counterexample has %d values, want %d", len(res.Counterexample), g.NumPIs())
	}
	outs := g.Eval(res.Counterexample)
	if outs[0] == outs[1] {
		t.Fatalf("counterexample %v does not distinguish the outputs", res.Counterexample)
	}
}

// TestCheckPrepShardParity runs a multi-output check through the
// sharded path with preprocessing on: verdict parity with the plain
// sharded check, per shard-count. The multipliers keep unmerged pairs
// after the fraig front end, so the shards have work to do.
func TestCheckPrepShardParity(t *testing.T) {
	m, t1, t2 := swappedMultipliers(6)
	for _, shards := range []int{1, 4} {
		plain, err := CheckLitsOpt(m, t1, t2, CheckOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		opt := prepCheckOpts()
		opt.Shards = shards
		prep, err := CheckLitsOpt(m, t1, t2, opt)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Equivalent != prep.Equivalent || !prep.Equivalent {
			t.Fatalf("shards=%d: plain=%v prep=%v, want both equivalent",
				shards, plain.Equivalent, prep.Equivalent)
		}
		if prep.Prep.Rounds == 0 {
			t.Fatalf("shards=%d: no shard reached the preprocessor", shards)
		}
	}
}
