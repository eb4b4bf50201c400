package cec

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"ecopatch/internal/aig"
	"ecopatch/internal/sat"
	"ecopatch/internal/sim"
)

func TestSweepMergesRedundantLogic(t *testing.T) {
	// Two structurally different computations of the same function:
	// (a|b) and !(!a & !b) collapse by hashing, so use a genuinely
	// different structure: or via mux.
	g := aig.New()
	a, b := g.AddPI("a"), g.AddPI("b")
	or1 := g.Or(a, b)
	or2 := g.Mux(a, aig.ConstTrue, b) // a ? 1 : b == a|b
	g.AddPO("f", g.And(or1, g.AddPI("c")))
	g.AddPO("h", g.And(or2, g.PI(2)))
	before := g.NumAnds()
	swept := Sweep(g, DefaultSweepOptions())
	if swept.NumAnds() >= before {
		t.Fatalf("sweep did not reduce: %d -> %d ANDs", before, swept.NumAnds())
	}
	res, err := CheckAIGs(g, swept)
	if err != nil || !res.Equivalent {
		t.Fatalf("sweep changed function: eq=%v err=%v", res.Equivalent, err)
	}
	// The two outputs must now share the same node.
	if swept.PO(0) != swept.PO(1) {
		t.Fatalf("equivalent outputs not merged: %v vs %v", swept.PO(0), swept.PO(1))
	}
}

func TestSweepPreservesRandomFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 15; iter++ {
		g := aig.New()
		var pool []aig.Lit
		nPI := 4 + rng.Intn(4)
		for i := 0; i < nPI; i++ {
			pool = append(pool, g.AddPI("x"))
		}
		for i := 0; i < 60; i++ {
			a := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
			b := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
			pool = append(pool, g.And(a, b))
		}
		g.AddPO("f", pool[len(pool)-1])
		g.AddPO("h", pool[len(pool)-2].Not())
		swept := Sweep(g, DefaultSweepOptions())
		res, err := CheckAIGs(g, swept)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("iter %d: sweep changed function", iter)
		}
		if swept.NumAnds() > g.NumAnds() {
			t.Fatalf("iter %d: sweep grew the graph", iter)
		}
	}
}

func TestSweepMergesComplementPairs(t *testing.T) {
	// f and !f should land in one class and merge up to complement.
	g := aig.New()
	a, b := g.AddPI("a"), g.AddPI("b")
	f := g.And(a, b)
	notf := g.Nand(b, a) // same node complemented by hashing... force different structure
	g2 := g.Or(a.Not(), b.Not())
	_ = notf
	g.AddPO("x", f)
	g.AddPO("y", g2) // y == !x
	swept := Sweep(g, DefaultSweepOptions())
	if swept.PO(0) != swept.PO(1).Not() {
		t.Fatalf("complement pair not merged: %v vs %v", swept.PO(0), swept.PO(1))
	}
}

// TestSweepMergesConstant pins the constant class: a node that is
// functionally false but not structurally so must sweep into the
// constant rather than survive as an AND.
func TestSweepMergesConstant(t *testing.T) {
	g := aig.New()
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	f := g.And(a, g.And(b, g.And(c, a.Not()))) // a & b & c & !a
	g.AddPO("f", f)
	g.AddPO("nf", f.Not())
	if g.PO(0) == aig.ConstFalse {
		t.Fatal("hashing already folded the node; the test needs a structural constant")
	}
	swept := Sweep(g, DefaultSweepOptions())
	if swept.PO(0) != aig.ConstFalse || swept.PO(1) != aig.ConstTrue {
		t.Fatalf("constant node not merged: POs %v, %v", swept.PO(0), swept.PO(1))
	}
	if swept.NumAnds() != 0 {
		t.Fatalf("swept graph keeps %d ANDs, want 0", swept.NumAnds())
	}
}

// TestCheckAIGsRandomPairs runs CheckAIGs, which fraigs the miter
// before its final query, on random circuits against a clone or a
// complemented-output variant: the verdict must match the
// construction, and every counterexample must distinguish the pair.
func TestCheckAIGsRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for iter := 0; iter < 10; iter++ {
		g1 := aig.New()
		var pool []aig.Lit
		for i := 0; i < 5; i++ {
			pool = append(pool, g1.AddPI("x"))
		}
		for i := 0; i < 40; i++ {
			a := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
			b := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
			pool = append(pool, g1.And(a, b))
		}
		g1.AddPO("f", pool[len(pool)-1])
		g2 := aig.Clone(g1)
		mutated := iter%2 == 1
		if mutated {
			g2.SetPO(0, g2.PO(0).Not()) // inequivalent variant
		}
		res, err := CheckAIGs(g1, g2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Equivalent == mutated {
			t.Fatalf("iter %d: equivalent=%v for mutated=%v", iter, res.Equivalent, mutated)
		}
		if mutated && g1.Eval(res.Counterexample)[0] == g2.Eval(res.Counterexample)[0] {
			t.Fatalf("iter %d: counterexample %v does not distinguish the pair", iter, res.Counterexample)
		}
	}
}

// TestCanonKey pins the canonical-signature keying: complementing a
// signature must not change its key (polarity canonicalization), equal
// canonical signatures compare equal, and differing ones do not.
func TestCanonKey(t *testing.T) {
	sig := []uint64{0xdeadbeef01, 0x12345678, 0xffffffffffffffff}
	inv := make([]uint64, len(sig))
	for i, w := range sig {
		inv[i] = ^w
	}
	h1, c1 := sim.CanonKey(sig)
	h2, c2 := sim.CanonKey(inv)
	if h1 != h2 {
		t.Fatalf("complemented signature hashed differently: %x vs %x", h1, h2)
	}
	if c1 == c2 {
		t.Fatalf("complement flags must differ, both %v", c1)
	}
	if !sim.CanonEqual(sig, inv) {
		t.Fatal("signature and its complement are the same canonical class")
	}
	other := []uint64{0xdeadbeef01, 0x12345678, 0xfffffffffffffffe}
	if sim.CanonEqual(sig, other) {
		t.Fatal("distinct canonical signatures compared equal")
	}
	if sim.CanonEqual(sig, sig[:2]) {
		t.Fatal("length mismatch compared equal")
	}
}

// TestCheckSweepConflictsCounted pins the accounting of the fraig
// front end: when the sweep settles every pair, its solver is the only
// one the check creates, and its conflicts are the Result's.
func TestCheckSweepConflictsCounted(t *testing.T) {
	m, t1, t2 := adderMiter(8)
	var solvers []*sat.Solver
	res, err := CheckLitsOpt(m, t1, t2, CheckOptions{
		OnSolver: func(s *sat.Solver) { solvers = append(solvers, s) },
	})
	if err != nil || !res.Equivalent {
		t.Fatalf("adder variants: eq=%v err=%v", res.Equivalent, err)
	}
	if len(solvers) != 1 {
		t.Fatalf("check created %d solvers, want only the sweep's", len(solvers))
	}
	if res.Conflicts == 0 || res.Conflicts != solvers[0].Stats.Conflicts {
		t.Fatalf("Result.Conflicts = %d, sweep solver spent %d", res.Conflicts, solvers[0].Stats.Conflicts)
	}
}

// TestCheckInterruptMidSweep interrupts a check from inside its fraig
// front end, the way the engine's deadline watcher does: at the sweep
// solver's first learnt clause every registered solver is interrupted
// and later ones are interrupted on registration. The check must give
// up rather than report the pair equivalent from a partial sweep.
func TestCheckInterruptMidSweep(t *testing.T) {
	m, t1, t2 := adderMiter(8)
	var mu sync.Mutex
	var solvers []*sat.Solver
	stopped := false
	onSolver := func(s *sat.Solver) {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			s.Interrupt()
		}
		solvers = append(solvers, s)
		if len(solvers) > 1 {
			return
		}
		s.SetLearntHook(func([]sat.Lit, uint32) {
			mu.Lock()
			defer mu.Unlock()
			if !stopped {
				stopped = true
				for _, x := range solvers {
					x.Interrupt()
				}
			}
		})
	}
	res, err := CheckLitsOpt(m, t1, t2, CheckOptions{OnSolver: onSolver})
	if !stopped {
		t.Fatal("the sweep learnt no clause, so the interrupt never fired inside it")
	}
	if !errors.Is(err, ErrGaveUp) {
		t.Fatalf("interrupted check: err=%v, want ErrGaveUp", err)
	}
	if res.Equivalent {
		t.Fatal("interrupted check reported equivalent")
	}
}
