package cec

import (
	"math/rand"
	"testing"

	"ecopatch/internal/aig"
)

// FuzzCheckLits checks CheckLitsOpt, fraig front end included, against
// exhaustive simulation. Each input builds one random AIG (1-10 PIs)
// and 1-4 output pairs: the second edge of a pair is the Shannon
// expansion of the first about a random PI, a new structure for the
// same function, and a pair whose bit is set in the low nibble of mode
// gets one cofactor XORed with a random node, which usually breaks the
// equivalence. Bits 0x10, 0x20, 0x40 and 0x80 of mode are unused. The
// verdict must match the simulation, a counterexample must distinguish
// some pair, and FailingOutput must be the lowest pair it
// distinguishes.
func FuzzCheckLits(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed*37), uint8(seed), uint8(seed*23))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, outs, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		nPI := 1 + int(shape)%10
		nAnd := 4 + int(shape>>4)*4
		nOut := 1 + int(outs)%4

		g := aig.New()
		pool := make([]aig.Lit, 0, nPI+nAnd)
		for i := 0; i < nPI; i++ {
			pool = append(pool, g.AddPI("x"))
		}
		pick := func() aig.Lit { return pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1) }
		for i := 0; i < nAnd; i++ {
			pool = append(pool, g.And(pick(), pick()))
		}
		ident := make([]aig.Lit, nPI)
		for i := range ident {
			ident[i] = g.PI(i)
		}
		as := make([]aig.Lit, nOut)
		bs := make([]aig.Lit, nOut)
		for i := range as {
			as[i] = pick()
			x := rng.Intn(nPI)
			c0 := aig.Cofactor(g, g, ident, map[int]bool{x: false}, as[i:i+1])[0]
			c1 := aig.Cofactor(g, g, ident, map[int]bool{x: true}, as[i:i+1])[0]
			if mode&(1<<uint(i)) != 0 {
				if rng.Intn(2) == 0 {
					c0 = g.Xor(c0, pick())
				} else {
					c1 = g.Xor(c1, pick())
				}
			}
			bs[i] = g.Mux(g.PI(x), c1, c0)
		}

		res, err := CheckLitsOpt(g, as, bs, CheckOptions{})
		if err != nil {
			t.Fatal(err)
		}

		// Exhaustive simulation: pattern p sets PI i to bit i of p.
		blocks := (1 << uint(nPI)) / 64
		if blocks == 0 {
			blocks = 1
		}
		simr := aig.NewSimulator(g)
		piWords := make([]uint64, nPI)
		equivalent := true
		for blk := 0; blk < blocks; blk++ {
			for i := range piWords {
				piWords[i] = 0
				for b := 0; b < 64; b++ {
					if (blk*64+b)>>uint(i)&1 == 1 {
						piWords[i] |= 1 << uint(b)
					}
				}
			}
			words := simr.Run(piWords)
			for k := range as {
				if aig.WordOf(words, as[k]) != aig.WordOf(words, bs[k]) {
					equivalent = false
				}
			}
		}
		if res.Equivalent != equivalent {
			t.Fatalf("verdict %v, exhaustive simulation says %v", res.Equivalent, equivalent)
		}
		if equivalent {
			return
		}
		if len(res.Counterexample) != nPI {
			t.Fatalf("counterexample has %d values, want %d", len(res.Counterexample), nPI)
		}
		ev := aig.NewEvaluator(g)
		ev.Eval(res.Counterexample)
		lowest := -1
		for k := range as {
			if ev.Lit(as[k]) != ev.Lit(bs[k]) {
				lowest = k
				break
			}
		}
		if lowest < 0 {
			t.Fatalf("counterexample %v distinguishes no pair", res.Counterexample)
		}
		if res.FailingOutput != lowest {
			t.Fatalf("FailingOutput %d, lowest pair the counterexample distinguishes is %d", res.FailingOutput, lowest)
		}
	})
}
