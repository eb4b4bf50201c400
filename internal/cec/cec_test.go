package cec

import (
	"math/rand"
	"testing"

	"ecopatch/internal/aig"
)

// adder builds an n-bit ripple-carry adder AIG.
func adder(n int, variant bool) *aig.AIG {
	g := aig.New()
	as := make([]aig.Lit, n)
	bs := make([]aig.Lit, n)
	for i := 0; i < n; i++ {
		as[i] = g.AddPI("a")
	}
	for i := 0; i < n; i++ {
		bs[i] = g.AddPI("b")
	}
	carry := aig.ConstFalse
	for i := 0; i < n; i++ {
		var sum aig.Lit
		if variant {
			// Same function, different structure: s = a xnor b xnor c... keep
			// identical semantics via rearranged xors.
			sum = g.Xor(as[i], g.Xor(bs[i], carry))
		} else {
			sum = g.Xor(g.Xor(as[i], bs[i]), carry)
		}
		carry = g.Or(g.And(as[i], bs[i]), g.And(carry, g.Or(as[i], bs[i])))
		g.AddPO("s", sum)
	}
	g.AddPO("cout", carry)
	return g
}

// adderMiter places the two adder variants in one graph over shared
// PIs and returns their output edges, pair by pair.
func adderMiter(n int) (*aig.AIG, []aig.Lit, []aig.Lit) {
	g1, g2 := adder(n, false), adder(n, true)
	m := aig.New()
	piMap := make([]aig.Lit, g1.NumPIs())
	for i := range piMap {
		piMap[i] = m.AddPI(g1.PIName(i))
	}
	outs := func(g *aig.AIG) []aig.Lit {
		os := make([]aig.Lit, g.NumPOs())
		for i := range os {
			os[i] = g.PO(i)
		}
		return os
	}
	return m, aig.Transfer(m, g1, piMap, outs(g1)), aig.Transfer(m, g2, piMap, outs(g2))
}

func TestEquivalentAdders(t *testing.T) {
	g1 := adder(6, false)
	g2 := adder(6, true)
	res, err := CheckAIGs(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("adders should be equivalent; cex %v output %d", res.Counterexample, res.FailingOutput)
	}
}

func TestInequivalentCircuits(t *testing.T) {
	g1 := aig.New()
	a, b := g1.AddPI("a"), g1.AddPI("b")
	g1.AddPO("f", g1.And(a, b))

	g2 := aig.New()
	a2, b2 := g2.AddPI("a"), g2.AddPI("b")
	g2.AddPO("f", g2.Or(a2, b2))

	res, err := CheckAIGs(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("AND vs OR reported equivalent")
	}
	// Verify the counterexample actually distinguishes them.
	o1 := g1.Eval(res.Counterexample)
	o2 := g2.Eval(res.Counterexample)
	if o1[0] == o2[0] {
		t.Fatalf("counterexample %v does not distinguish", res.Counterexample)
	}
	if res.FailingOutput != 0 {
		t.Fatalf("FailingOutput = %d", res.FailingOutput)
	}
}

func TestShapeMismatch(t *testing.T) {
	g1 := aig.New()
	g1.AddPI("a")
	g1.AddPO("f", aig.ConstTrue)
	g2 := aig.New()
	g2.AddPI("a")
	g2.AddPI("b")
	g2.AddPO("f", aig.ConstTrue)
	if _, err := CheckAIGs(g1, g2); err == nil {
		t.Fatal("PI mismatch not reported")
	}
	g3 := aig.New()
	g3.AddPI("a")
	if _, err := CheckAIGs(g1, g3); err == nil {
		t.Fatal("PO mismatch not reported")
	}
}

func TestCheckLits(t *testing.T) {
	g := aig.New()
	a, b := g.AddPI("a"), g.AddPI("b")
	// Two structurally different but equivalent forms of a|b.
	x := g.Or(a, b)
	y := g.Nand(a.Not(), b.Not())
	res, err := CheckLits(g, []aig.Lit{x}, []aig.Lit{y})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("equivalent literals reported different")
	}
	res, err = CheckLits(g, []aig.Lit{x}, []aig.Lit{g.And(a, b)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("or vs and reported equivalent")
	}
}

func TestRandomMutationDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 20; iter++ {
		// Random circuit.
		g1 := aig.New()
		var pool []aig.Lit
		for i := 0; i < 6; i++ {
			pool = append(pool, g1.AddPI("x"))
		}
		for i := 0; i < 30; i++ {
			a := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
			b := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
			pool = append(pool, g1.And(a, b))
		}
		root := pool[len(pool)-1]
		g1.AddPO("f", root)

		// Mutation: complement the output.
		g2 := aig.Clone(g1)
		g2.SetPO(0, g2.PO(0).Not())

		res, err := CheckAIGs(g1, g2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Equivalent {
			t.Fatalf("iter %d: complemented output reported equivalent", iter)
		}
	}
}

func TestSelfEquivalenceOfClone(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 10; iter++ {
		g1 := aig.New()
		var pool []aig.Lit
		for i := 0; i < 5; i++ {
			pool = append(pool, g1.AddPI("x"))
		}
		for i := 0; i < 25; i++ {
			a := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
			b := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
			pool = append(pool, g1.And(a, b))
		}
		g1.AddPO("f", pool[len(pool)-1])
		g1.AddPO("g", pool[len(pool)-2].Not())
		res, err := CheckAIGs(g1, aig.Clone(g1))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("iter %d: clone not equivalent", iter)
		}
	}
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

// TestSwappedMultipliersEquivalent proves the operand-swapped 6x6
// multipliers equal through the final SAT query.
func TestSwappedMultipliersEquivalent(t *testing.T) {
	g, xs, ys := swappedMultipliers(6)
	res, err := CheckLits(g, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("operand-swapped multipliers reported inequivalent")
	}
}

// TestSwappedMultipliersCounterexample mutates one product bit of the
// swapped multiplier: the check must return a counterexample that
// distinguishes the pair it names when evaluated on the original
// graph, not only on the swept miter the final query solved.
func TestSwappedMultipliersCounterexample(t *testing.T) {
	const n = 6
	g, xs, ys := swappedMultipliers(n)
	ys[5] = g.Xor(ys[5], g.And(g.PI(0), g.PI(n+1)))
	res, err := CheckLits(g, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("mutated multiplier reported equivalent")
	}
	if len(res.Counterexample) != g.NumPIs() {
		t.Fatalf("counterexample has %d values, want %d", len(res.Counterexample), g.NumPIs())
	}
	ev := aig.NewEvaluator(g)
	ev.Eval(res.Counterexample)
	lowest := -1
	for k := range xs {
		if ev.Lit(xs[k]) != ev.Lit(ys[k]) {
			lowest = k
			break
		}
	}
	if lowest < 0 {
		t.Fatalf("counterexample %v distinguishes no pair on the original graph", res.Counterexample)
	}
	if res.FailingOutput != lowest {
		t.Fatalf("FailingOutput %d, lowest distinguished pair %d", res.FailingOutput, lowest)
	}
}
