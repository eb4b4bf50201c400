package cec

import (
	"errors"
	"math/rand"
	"testing"

	"ecopatch/internal/aig"
	"ecopatch/internal/sat"
)

// randomMultiOutGraph builds a graph with nOut outputs over shared
// random logic — enough distinct pairs to shard meaningfully.
func randomMultiOutGraph(seed int64, nOut int) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New()
	var pool []aig.Lit
	for i := 0; i < 8; i++ {
		pool = append(pool, g.AddPI("x"))
	}
	for i := 0; i < 120; i++ {
		a := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		b := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		pool = append(pool, g.And(a, b))
	}
	for o := 0; o < nOut; o++ {
		g.AddPO("y", pool[len(pool)-1-o])
	}
	return g
}

// TestShardedCheckLitsAgree compares sharded and serial verdicts over
// rebuilt-vs-original output pairs, equivalent and mutated.
func TestShardedCheckLitsAgree(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		g1 := randomMultiOutGraph(int64(100+iter), 12)
		g2 := aig.Clone(g1)
		if iter%2 == 1 {
			// Flip one output: inequivalent.
			g2.SetPO(iter%12, g2.PO(iter%12).Not())
		}
		serial, errS := CheckAIGs(g1, g2)
		if errS != nil {
			t.Fatal(errS)
		}
		// Sharded run over the same miter construction.
		m := aig.New()
		piMap := make([]aig.Lit, g1.NumPIs())
		for i := range piMap {
			piMap[i] = m.AddPI(g1.PIName(i))
		}
		outs1 := make([]aig.Lit, g1.NumPOs())
		outs2 := make([]aig.Lit, g2.NumPOs())
		for i := 0; i < g1.NumPOs(); i++ {
			outs1[i] = g1.PO(i)
			outs2[i] = g2.PO(i)
		}
		t1 := aig.Transfer(m, g1, piMap, outs1)
		t2 := aig.Transfer(m, g2, piMap, outs2)
		sharded, errP := checkPairs(m, piMap, t1, t2, CheckOptions{Shards: 4})
		if errP != nil {
			t.Fatal(errP)
		}
		if serial.Equivalent != sharded.Equivalent {
			t.Fatalf("iter %d: serial=%v sharded=%v", iter, serial.Equivalent, sharded.Equivalent)
		}
		if !sharded.Equivalent {
			// The counterexample must actually expose a difference.
			if sharded.FailingOutput < 0 {
				t.Fatalf("iter %d: inequivalent but no failing output", iter)
			}
			i := sharded.FailingOutput
			if m.EvalLit(t1[i], sharded.Counterexample) == m.EvalLit(t2[i], sharded.Counterexample) {
				t.Fatalf("iter %d: counterexample does not differentiate output %d", iter, i)
			}
		}
	}
}

// TestShardedDeterministicCex pins the merge rule: with several
// inequivalent outputs, repeated sharded runs return the same
// counterexample and failing output (lowest satisfiable shard wins,
// regardless of scheduling).
func TestShardedDeterministicCex(t *testing.T) {
	g1 := randomMultiOutGraph(7, 12)
	g2 := aig.Clone(g1)
	for _, o := range []int{2, 5, 9} {
		g2.SetPO(o, g2.PO(o).Not())
	}
	var firstCex []bool
	firstOut := -2
	for run := 0; run < 6; run++ {
		m := aig.New()
		piMap := make([]aig.Lit, g1.NumPIs())
		for i := range piMap {
			piMap[i] = m.AddPI(g1.PIName(i))
		}
		outs1 := make([]aig.Lit, g1.NumPOs())
		outs2 := make([]aig.Lit, g2.NumPOs())
		for i := 0; i < g1.NumPOs(); i++ {
			outs1[i] = g1.PO(i)
			outs2[i] = g2.PO(i)
		}
		t1 := aig.Transfer(m, g1, piMap, outs1)
		t2 := aig.Transfer(m, g2, piMap, outs2)
		res, err := checkPairs(m, piMap, t1, t2, CheckOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Equivalent {
			t.Fatal("mutated outputs must be inequivalent")
		}
		if run == 0 {
			firstCex = res.Counterexample
			firstOut = res.FailingOutput
			continue
		}
		if res.FailingOutput != firstOut {
			t.Fatalf("run %d: failing output %d, first run %d", run, res.FailingOutput, firstOut)
		}
		for i := range firstCex {
			if res.Counterexample[i] != firstCex[i] {
				t.Fatalf("run %d: counterexample differs at PI %d", run, i)
			}
		}
	}
}

// TestRewriteCheckSharded pins that every shard count reports the
// serial run's failing output: the worker pool's deterministic merge
// rule (lowest satisfiable shard wins) does not depend on the number of
// shards.
func TestRewriteCheckSharded(t *testing.T) {
	g1 := randomMultiOutGraph(42, 12)
	g2 := aig.Clone(g1)
	for _, o := range []int{1, 6, 10} {
		g2.SetPO(o, g2.PO(o).Not())
	}
	outs1 := make([]aig.Lit, g1.NumPOs())
	outs2 := make([]aig.Lit, g2.NumPOs())
	for i := range outs1 {
		outs1[i] = g1.PO(i)
		outs2[i] = g2.PO(i)
	}
	run := func(shards int) Result {
		m := aig.New()
		piMap := make([]aig.Lit, g1.NumPIs())
		for i := range piMap {
			piMap[i] = m.AddPI(g1.PIName(i))
		}
		t1 := aig.Transfer(m, g1, piMap, outs1)
		t2 := aig.Transfer(m, g2, piMap, outs2)
		res, err := checkPairs(m, piMap, t1, t2, CheckOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	if serial.Equivalent {
		t.Fatal("mutated outputs must be inequivalent")
	}
	for _, shards := range []int{2, 4} {
		res := run(shards)
		if res.Equivalent || res.FailingOutput != serial.FailingOutput {
			t.Fatalf("shards=%d: equivalent=%v failing=%d, serial failing=%d",
				shards, res.Equivalent, res.FailingOutput, serial.FailingOutput)
		}
	}
}

// TestShardedInterrupt: interrupting all shard solvers with no shard
// having found a difference yields ErrGaveUp, same as serial.
func TestShardedInterrupt(t *testing.T) {
	g1 := randomMultiOutGraph(11, 8)
	g2 := aig.Clone(g1)
	m := aig.New()
	piMap := make([]aig.Lit, g1.NumPIs())
	for i := range piMap {
		piMap[i] = m.AddPI(g1.PIName(i))
	}
	outs1 := make([]aig.Lit, g1.NumPOs())
	outs2 := make([]aig.Lit, g2.NumPOs())
	for i := range outs1 {
		outs1[i] = g1.PO(i)
		outs2[i] = g2.PO(i)
	}
	t1 := aig.Transfer(m, g1, piMap, outs1)
	t2 := aig.Transfer(m, g2, piMap, outs2)
	// Force structural difference so the SAT path runs: re-transfer
	// under fresh nodes is already merged by strashing, so mutate one.
	t2[0] = t2[0].Not()
	_, err := checkPairs(m, piMap, t1, t2, CheckOptions{
		Shards:   3,
		OnSolver: func(s *sat.Solver) { s.Interrupt() },
	})
	if !errors.Is(err, ErrGaveUp) {
		t.Fatalf("interrupted shards: err=%v, want ErrGaveUp", err)
	}
}

// TestCheckPairsParallelMatchesSerial runs the same batch through one
// PairChecker and through the worker pool; results must be identical
// position by position.
func TestCheckPairsParallelMatchesSerial(t *testing.T) {
	g := randomMultiOutGraph(23, 4)
	// Build a batch mixing equal pairs (same node), complements, and
	// random node pairs.
	var pairs [][2]aig.Lit
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		a := aig.MkLit(rng.Intn(n), rng.Intn(2) == 1)
		b := aig.MkLit(rng.Intn(n), rng.Intn(2) == 1)
		pairs = append(pairs, [2]aig.Lit{a, b})
	}
	serial := CheckPairsParallel(g, pairs, 1, CheckOptions{})
	parallel := CheckPairsParallel(g, pairs, 4, CheckOptions{})
	if len(serial) != len(parallel) {
		t.Fatal("length mismatch")
	}
	for i := range serial {
		if serial[i].Equal != parallel[i].Equal {
			t.Fatalf("pair %d: serial equal=%v parallel equal=%v", i, serial[i].Equal, parallel[i].Equal)
		}
		if (serial[i].Err == nil) != (parallel[i].Err == nil) {
			t.Fatalf("pair %d: err mismatch %v vs %v", i, serial[i].Err, parallel[i].Err)
		}
		// Counterexamples may differ between solvers; both must expose
		// a real difference when the pair is unequal.
		for _, r := range []PairResult{serial[i], parallel[i]} {
			if !r.Equal && r.Err == nil && r.Cex != nil {
				a, b := pairs[i][0], pairs[i][1]
				if g.EvalLit(a, r.Cex) == g.EvalLit(b, r.Cex) {
					t.Fatalf("pair %d: counterexample does not differentiate", i)
				}
			}
		}
	}
}
