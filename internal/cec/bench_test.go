package cec

import (
	"math/rand"
	"testing"

	"ecopatch/internal/aig"
	"ecopatch/internal/sim"
)

func twoEquivalentGraphs(n int) (*aig.AIG, *aig.AIG) {
	rng := rand.New(rand.NewSource(13))
	g := aig.New()
	pool := make([]aig.Lit, 0, n+12)
	for i := 0; i < 12; i++ {
		pool = append(pool, g.AddPI("x"))
	}
	for i := 0; i < n; i++ {
		a := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		c := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		pool = append(pool, g.And(a, c))
	}
	for o := 0; o < 4; o++ {
		g.AddPO("y", pool[len(pool)-1-o])
	}
	return g, aig.Clone(g)
}

// BenchmarkCheckAIGs measures the plain miter-based check.
func BenchmarkCheckAIGs(b *testing.B) {
	g1, g2 := twoEquivalentGraphs(3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := CheckAIGs(g1, g2)
		if err != nil || !res.Equivalent {
			b.Fatal("clone must be equivalent")
		}
	}
}

// BenchmarkSweep measures the fraiging pass.
func BenchmarkSweep(b *testing.B) {
	g, _ := twoEquivalentGraphs(3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sweep(g, DefaultSweepOptions())
	}
}

// denseXorGraph accumulates XORs so every node stays in the PO cone:
// with few PIs many nodes coincide or nearly coincide functionally,
// which drives candidate probing, counterexample refinement, and class
// rebuilds — the canonical-signature hot path.
func denseXorGraph(n int) *aig.AIG {
	rng := rand.New(rand.NewSource(17))
	g := aig.New()
	pool := make([]aig.Lit, 0, n+8)
	for i := 0; i < 8; i++ {
		pool = append(pool, g.AddPI("x"))
	}
	acc := pool[0]
	for i := 0; i < n; i++ {
		a := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		c := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		x := g.Xor(a, c)
		pool = append(pool, x)
		acc = g.Xor(acc, x)
	}
	g.AddPO("y", acc)
	return g
}

// BenchmarkSignatureKeys isolates the class-index rebuild that
// flushCex performs after every 64 counterexamples: key every node's
// canonical signature and bucket it. "bytes" replicates the previous
// implementation (materialize the canonical signature as a string
// key); "fnv" is the current canonKey path.
func BenchmarkSignatureKeys(b *testing.B) {
	const nodes, rounds = 3000, 12
	rng := rand.New(rand.NewSource(5))
	sigs := make([][]uint64, nodes)
	for i := range sigs {
		sigs[i] = make([]uint64, rounds)
		for j := range sigs[i] {
			sigs[i][j] = rng.Uint64()
		}
	}
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			classes := make(map[string][]int, nodes)
			for n, s := range sigs {
				compl := len(s) > 0 && s[0]&1 == 1
				buf := make([]byte, 0, len(s)*8)
				for _, w := range s {
					if compl {
						w = ^w
					}
					for k := 0; k < 8; k++ {
						buf = append(buf, byte(w>>uint(8*k)))
					}
				}
				classes[string(buf)] = append(classes[string(buf)], n)
			}
		}
	})
	b.Run("fnv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			classes := make(map[uint64][]int, nodes)
			for n, s := range sigs {
				h, _ := sim.CanonKey(s)
				classes[h] = append(classes[h], n)
			}
		}
	})
	// The sweep looks a node's key up several times per epoch (bucket
	// registration, candidate probing, post-flush re-lookup); "memo"
	// replicates Sweep's per-epoch memoization against "fnv-relookup",
	// which recomputes the fold on every lookup as Sweep once did.
	const lookups = 4
	b.Run("fnv-relookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sink uint64
			for l := 0; l < lookups; l++ {
				for _, s := range sigs {
					h, _ := sim.CanonKey(s)
					sink ^= h
				}
			}
			benchSink = sink
		}
	})
	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		keys := make([]uint64, nodes)
		keyed := make([]bool, nodes)
		for i := 0; i < b.N; i++ {
			for n := range keyed {
				keyed[n] = false // new epoch
			}
			var sink uint64
			for l := 0; l < lookups; l++ {
				for n, s := range sigs {
					if !keyed[n] {
						keys[n], _ = sim.CanonKey(s)
						keyed[n] = true
					}
					sink ^= keys[n]
				}
			}
			benchSink = sink
		}
	})
}

// benchSink defeats dead-code elimination in the key benchmarks.
var benchSink uint64

// BenchmarkSweepRefine stresses signature canonicalization: a single
// simulation round leaves many spurious candidate classes, so the
// sweep keeps disproving candidates, flushing counterexamples, and
// rebuilding the class index over ever-longer signatures. Before the
// FNV-hash keys, every rebuild re-materialized O(nodes × rounds × 8)
// bytes of canonical signatures.
func BenchmarkSweepRefine(b *testing.B) {
	g := denseXorGraph(150)
	opt := SweepOptions{SimRounds: 1, MaxConflicts: 20, MaxCandidates: 2, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sweep(g, opt)
	}
}
