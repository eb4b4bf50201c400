package aig

import (
	"math/rand"
	"testing"
)

func benchGraph(n int) *AIG {
	rng := rand.New(rand.NewSource(7))
	g := New()
	pool := make([]Lit, 0, n+16)
	for i := 0; i < 16; i++ {
		pool = append(pool, g.AddPI("x"))
	}
	for i := 0; i < n; i++ {
		a := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		b := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		pool = append(pool, g.And(a, b))
	}
	for o := 0; o < 8; o++ {
		g.AddPO("y", pool[len(pool)-1-o])
	}
	return g
}

// BenchmarkAnd measures hashed node construction.
func BenchmarkAnd(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := New()
	pool := make([]Lit, 0, b.N+8)
	for i := 0; i < 8; i++ {
		pool = append(pool, g.AddPI("x"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := pool[rng.Intn(len(pool))]
		c := pool[rng.Intn(len(pool))]
		pool = append(pool, g.And(a, c))
	}
}

// BenchmarkTransfer measures cone copying with rehashing — the
// operation behind miter construction and quantifier expansion.
func BenchmarkTransfer(b *testing.B) {
	src := benchGraph(20000)
	roots := make([]Lit, src.NumPOs())
	for i := range roots {
		roots[i] = src.PO(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := New()
		m := IdentityMap(dst, src)
		Transfer(dst, src, m, roots)
	}
}

// BenchmarkSimWords measures 64-way parallel simulation.
func BenchmarkSimWords(b *testing.B) {
	g := benchGraph(20000)
	rng := rand.New(rand.NewSource(11))
	words := g.RandomSimWords(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SimWords(words)
	}
}

// BenchmarkBalance measures the depth-reduction pass.
func BenchmarkBalance(b *testing.B) {
	g := benchGraph(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Balance(g)
	}
}

// BenchmarkCleanup guards the pooled-scratch rebuild path: the pass
// runs on every window extraction, so its per-call allocations
// (beyond the result graph itself) must stay flat. Run with -benchmem
// to see the allocs/op pin.
func BenchmarkCleanup(b *testing.B) {
	g := benchGraph(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cleanup(g)
	}
}
