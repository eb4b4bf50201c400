package eco

import (
	"math/rand"
	"testing"

	"ecopatch/internal/aig"
	"ecopatch/internal/netlist"
)

// TestExactSupportIsOptimalBruteForce cross-validates SAT_prune on
// random single-target instances: the minimum feasible support cost
// is recomputed by exhaustive subset enumeration over the engine's
// own divisor list, using truth tables for the feasibility test
// (a subset is feasible iff no onset point and offset point of the
// target miter agree on all chosen divisors).
func TestExactSupportIsOptimalBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	checked := 0
	for iter := 0; iter < 60 && checked < 25; iter++ {
		inst := randomTinyInstance(t, rng)
		if inst == nil {
			continue
		}
		opt := DefaultOptions()
		opt.Support = SupportExact
		opt.LastGasp = false

		// White-box: reproduce the engine's divisor view.
		probe := &engine{inst: inst, opt: opt, res: &Result{}}
		if err := probe.setup(); err != nil {
			t.Fatal(err)
		}
		if feasible, _ := probe.checkFeasible(); !feasible || len(probe.targets) != 1 || len(probe.divisors) > 12 {
			continue
		}
		probe.rectifyAllInit()
		m0, m1 := probe.cofactorMiters(0)
		best, ok := bruteForceMinSupportCost(probe, m0, m1)
		if !ok {
			continue // no feasible subset (shouldn't happen when feasible)
		}
		checked++

		res, err := Solve(inst, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("iter %d: not verified", iter)
		}
		if res.TotalCost != best {
			t.Fatalf("iter %d: SAT_prune cost %d != brute-force optimum %d (support %v)",
				iter, res.TotalCost, best, res.Patches[0].Support)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d instances checked; weak test", checked)
	}
}

// bruteForceMinSupportCost enumerates divisor subsets by exhaustive
// truth tables. Returns the minimum total cost of a feasible subset.
func bruteForceMinSupportCost(e *engine, m0, m1 aig.Lit) (int, bool) {
	nPI := e.w.NumPIs()
	nX := len(e.xPIs)
	if nX > 10 {
		return 0, false
	}
	type point struct {
		divBits uint32
		onset   bool
		offset  bool
	}
	var pts []point
	in := make([]bool, nPI)
	for m := 0; m < 1<<uint(nX); m++ {
		for i, p := range e.xPIs {
			in[p] = m>>uint(i)&1 == 1
		}
		on := e.w.EvalLit(m0, in)
		off := e.w.EvalLit(m1, in)
		if !on && !off {
			continue
		}
		var bits uint32
		for j, d := range e.divisors {
			if e.w.EvalLit(d.edge, in) {
				bits |= 1 << uint(j)
			}
		}
		pts = append(pts, point{bits, on, off})
	}
	nDiv := len(e.divisors)
	best := -1
	for mask := 0; mask < 1<<uint(nDiv); mask++ {
		cost := 0
		for j := 0; j < nDiv; j++ {
			if mask>>uint(j)&1 == 1 {
				cost += e.divisors[j].cost
			}
		}
		if best >= 0 && cost >= best {
			continue
		}
		// Feasible iff no onset/offset pair agrees on the mask bits.
		feasible := true
	outer:
		for _, a := range pts {
			if !a.onset {
				continue
			}
			for _, b := range pts {
				if !b.offset {
					continue
				}
				if (a.divBits^b.divBits)&uint32(mask) == 0 {
					feasible = false
					break outer
				}
			}
		}
		if feasible {
			best = cost
		}
	}
	return best, best >= 0
}

// randomTinyInstance builds a small feasible-by-construction instance
// with one target; returns nil when the sampled circuit degenerates.
func randomTinyInstance(t *testing.T, rng *rand.Rand) *Instance {
	t.Helper()
	nIn := 3 + rng.Intn(3)
	names := []string{"a", "b", "c", "d", "e", "g"}[:nIn]
	b := &netlist.Netlist{Name: "tiny", Inputs: append([]string(nil), names...)}
	pool := append([]string(nil), names...)
	kinds := []netlist.GateKind{netlist.GateAnd, netlist.GateOr, netlist.GateXor, netlist.GateNand}
	wires := 0
	gate := func(kind netlist.GateKind, ins ...string) string {
		wires++
		w := "w" + string(rune('0'+wires))
		b.Wires = append(b.Wires, w)
		b.Gates = append(b.Gates, netlist.Gate{Kind: kind, Out: w, Ins: ins})
		return w
	}
	for i := 0; i < 4+rng.Intn(5); i++ {
		x := pool[rng.Intn(len(pool))]
		y := pool[rng.Intn(len(pool))]
		if x == y {
			continue
		}
		pool = append(pool, gate(kinds[rng.Intn(len(kinds))], x, y))
	}
	if wires < 2 {
		return nil
	}
	// Output reads the last wire combined with the target.
	last := pool[len(pool)-1]
	b.Outputs = append(b.Outputs, "f", "g2")
	b.Gates = append(b.Gates,
		netlist.Gate{Kind: netlist.GateAnd, Out: "f", Ins: []string{last, "t_0"}},
		netlist.Gate{Kind: netlist.GateBuf, Out: "g2", Ins: []string{pool[nIn+rng.Intn(wires)]}},
	)

	// Spec: t_0 := random function of two non-TFO signals.
	spec := &netlist.Netlist{
		Name:    "tinyS",
		Inputs:  append([]string(nil), b.Inputs...),
		Outputs: append([]string(nil), b.Outputs...),
		Wires:   append([]string(nil), b.Wires...),
	}
	for _, g := range b.Gates {
		if g.Out == "f" {
			continue
		}
		spec.Gates = append(spec.Gates, g)
	}
	x := pool[rng.Intn(len(pool))]
	y := pool[rng.Intn(len(pool))]
	if x == y || x == "f" || y == "f" {
		return nil
	}
	spec.Wires = append(spec.Wires, "gfun")
	spec.Gates = append(spec.Gates,
		netlist.Gate{Kind: kinds[rng.Intn(len(kinds))], Out: "gfun", Ins: []string{x, y}},
		netlist.Gate{Kind: netlist.GateAnd, Out: "f", Ins: []string{last, "gfun"}},
	)
	w := netlist.NewWeights()
	for _, s := range append(append([]string(nil), b.Inputs...), b.Wires...) {
		w.Set(s, 1+rng.Intn(9))
	}
	w.Set("f", 50)
	w.Set("g2", 50)
	inst := &Instance{Name: "tiny", Impl: b, Spec: spec, Weights: w}
	if inst.Check() != nil {
		return nil
	}
	return inst
}
