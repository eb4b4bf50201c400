package cnf_test

import (
	"testing"

	"ecopatch/internal/aig"
	"ecopatch/internal/bench"
	"ecopatch/internal/cnf"
	"ecopatch/internal/netlist"
	"ecopatch/internal/sat"
)

// BenchmarkEncodeCone encodes the miter cone of Table-1 unit7 (the
// implementation, its targets as free inputs, against the
// specification over shared inputs) into a fresh solver per iteration.
// With -benchmem it shows what one encoding allocates, the solver's
// growth included.
func BenchmarkEncodeCone(b *testing.B) {
	cfg, err := bench.ConfigByName(1, "unit7")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := bench.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	impl, err := netlist.ToAIG(inst.Impl)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := netlist.ToAIG(inst.Spec)
	if err != nil {
		b.Fatal(err)
	}
	g := impl.G
	piMap := make([]aig.Lit, spec.G.NumPIs())
	for i := range piMap {
		piMap[i] = impl.Signals[spec.G.PIName(i)]
	}
	specPOs := make([]aig.Lit, spec.G.NumPOs())
	for i := range specPOs {
		specPOs[i] = spec.G.PO(i)
	}
	specOuts := aig.Transfer(g, spec.G, piMap, specPOs)
	miter := aig.ConstFalse
	for i, o := range specOuts {
		miter = g.Or(miter, g.Xor(impl.Signals[spec.G.POName(i)], o))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnf.NewEncoder(sat.New(), g).Lit(miter)
	}
}
