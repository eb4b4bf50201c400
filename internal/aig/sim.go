package aig

import "math/rand"

// Evaluator computes node values for single input assignments with a
// reusable buffer. One Eval pass makes every node readable through
// Lit, so callers probing many edges against one assignment (CEC
// evaluating a counterexample against every output pair) pay the O(nodes) walk once instead of per edge — and
// repeated assignments reuse the buffer instead of allocating one per
// call. An Evaluator is single-goroutine; concurrent callers each
// build their own (the graph itself is only read).
type Evaluator struct {
	g   *AIG
	val []bool
}

// NewEvaluator builds an evaluator over g.
func NewEvaluator(g *AIG) *Evaluator { return &Evaluator{g: g} }

// Eval computes the value of every node for one input assignment;
// read edges with Lit afterwards. The graph may have grown since the
// last call — new nodes are picked up automatically.
func (ev *Evaluator) Eval(inputs []bool) {
	g := ev.g
	if len(inputs) != len(g.pis) {
		panic("aig: Eval input length mismatch")
	}
	if cap(ev.val) < len(g.nodes) {
		ev.val = make([]bool, len(g.nodes))
	}
	val := ev.val[:len(g.nodes)]
	ev.val = val
	for i, p := range g.pis {
		val[p] = inputs[i]
	}
	// Only PI and AND values are (re)written; the constant node keeps
	// its zero value from allocation and nothing else reads stale slots.
	for idx, n := range g.nodes {
		if n.kind != kindAnd {
			continue
		}
		a := val[n.f0.Node()] != n.f0.Compl()
		b := val[n.f1.Node()] != n.f1.Compl()
		val[idx] = a && b
	}
}

// Lit reads the value of edge l from the last Eval pass.
func (ev *Evaluator) Lit(l Lit) bool {
	return ev.val[l.Node()] != l.Compl()
}

// Eval evaluates all primary outputs for one input assignment.
// inputs[i] is the value of the i-th primary input.
func (g *AIG) Eval(inputs []bool) []bool {
	ev := NewEvaluator(g)
	ev.Eval(inputs)
	out := make([]bool, len(g.pos))
	for i, p := range g.pos {
		out[i] = ev.Lit(p)
	}
	return out
}

// EvalLit evaluates a single edge for one input assignment. It is
// side-effect-free, so it may run concurrently with other read-only
// AIG operations — but it allocates a fresh node buffer per call; use
// an Evaluator to amortize repeated evaluations.
func (g *AIG) EvalLit(l Lit, inputs []bool) bool {
	ev := NewEvaluator(g)
	ev.Eval(inputs)
	return ev.Lit(l)
}

// Simulator runs 64-pattern bit-parallel simulation with a reusable
// word buffer — the batched counterpart of Evaluator. Single-
// goroutine; the graph is only read.
type Simulator struct {
	g   *AIG
	val []uint64
}

// NewSimulator builds a simulator over g.
func NewSimulator(g *AIG) *Simulator { return &Simulator{g: g} }

// Run simulates 64 parallel input patterns. piWords[i] holds 64
// pattern bits for PI i. The returned slice holds one word per node,
// indexed by node id (read an edge with WordOf); it aliases the
// simulator's buffer and is only valid until the next Run.
func (sm *Simulator) Run(piWords []uint64) []uint64 {
	g := sm.g
	if len(piWords) != len(g.pis) {
		panic("aig: SimWords input length mismatch")
	}
	if cap(sm.val) < len(g.nodes) {
		sm.val = make([]uint64, len(g.nodes))
	}
	val := sm.val[:len(g.nodes)]
	sm.val = val
	for i, p := range g.pis {
		val[p] = piWords[i]
	}
	for idx, n := range g.nodes {
		if n.kind != kindAnd {
			continue
		}
		a := val[n.f0.Node()]
		if n.f0.Compl() {
			a = ^a
		}
		b := val[n.f1.Node()]
		if n.f1.Compl() {
			b = ^b
		}
		val[idx] = a & b
	}
	return val
}

// SimWords runs 64 parallel input patterns. piWords[i] holds 64
// pattern bits for PI i. The returned slice holds one word per node,
// indexed by node id; read an edge's value with WordOf. Allocates per
// call; use a Simulator to amortize repeated rounds.
func (g *AIG) SimWords(piWords []uint64) []uint64 {
	return NewSimulator(g).Run(piWords)
}

// WordOf reads the simulated word of edge l from a SimWords result.
func WordOf(words []uint64, l Lit) uint64 {
	w := words[l.Node()]
	if l.Compl() {
		return ^w
	}
	return w
}

// RandomSimWords generates one random 64-pattern word per PI using rng.
func (g *AIG) RandomSimWords(rng *rand.Rand) []uint64 {
	ws := make([]uint64, len(g.pis))
	for i := range ws {
		ws[i] = rng.Uint64()
	}
	return ws
}
