package eco

import (
	"fmt"
	"math/rand"
	"time"

	"ecopatch/internal/aig"
	"ecopatch/internal/cec"
	"ecopatch/internal/maxflow"
)

// structuralPatch derives the patch for target i without SAT effort
// (§3.6): the negative cofactor M_i(0,x) is an interpolant of the
// (unsatisfiable) onset/offset pair, so its circuit — a function of
// primary inputs only — is a valid patch. When CEGARMin is enabled,
// the support is re-expressed through a minimum-weight cut of
// internal signals (§3.6.3).
func (e *engine) structuralPatch(i int, m0 aig.Lit) error {
	start := time.Now()
	defer func() { e.stats.PatchTime += time.Since(start) }()
	e.stats.StructuralFixes++
	if e.opt.CEGARMin {
		if err := e.cegarMinPatch(i, m0); err == nil {
			return nil
		} else {
			e.logf("target %s: CEGAR_min failed (%v); using PI support", e.targets[i], err)
		}
	}
	// Plain PI-support structural patch.
	support, boundary := e.piBoundary(m0)
	patch := e.extractAbove(m0, boundary, support)
	e.installPatch(i, patch, support, true)
	return nil
}

// piBoundary prepares the boundary map for a PI-supported patch: each
// x PI node in the cone of root maps to a fresh patch input.
func (e *engine) piBoundary(root aig.Lit) ([]string, map[int]int) {
	var support []string
	boundary := make(map[int]int) // w node -> support position
	for _, idx := range e.w.ConeNodes([]aig.Lit{root}) {
		if !e.w.IsPI(idx) {
			continue
		}
		pos := e.w.PIIndex(idx)
		name := e.w.PIName(pos)
		boundary[idx] = len(support)
		support = append(support, name)
	}
	return support, boundary
}

// extractAbove copies the cone of root into a fresh patch AIG,
// stopping at the boundary nodes, which become the patch PIs (in
// support order). boundaryCompl optionally marks boundary nodes whose
// signal is the complement of the node value.
func (e *engine) extractAbove(root aig.Lit, boundary map[int]int, support []string) *aig.AIG {
	patch := aig.New()
	pis := make([]aig.Lit, len(support))
	for j, name := range support {
		pis[j] = patch.AddPI(name)
	}
	return e.extractAboveInto(patch, pis, root, boundary, nil)
}

// extractAboveInto is extractAbove with caller-provided destination
// and PI edges; boundaryCompl[n]=true means w-node n equals the
// complement of its mapped patch input.
func (e *engine) extractAboveInto(patch *aig.AIG, pis []aig.Lit, root aig.Lit,
	boundary map[int]int, boundaryCompl map[int]bool) *aig.AIG {
	mapped := make(map[int]aig.Lit)
	var build func(n int) aig.Lit
	// Iterative DFS to avoid recursion depth issues.
	build = func(start int) aig.Lit {
		type frame struct {
			n        int
			expanded bool
		}
		stack := []frame{{start, false}}
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			n := f.n
			if _, ok := mapped[n]; ok {
				stack = stack[:len(stack)-1]
				continue
			}
			if pos, ok := boundary[n]; ok {
				edge := pis[pos]
				if boundaryCompl[n] {
					edge = edge.Not()
				}
				mapped[n] = edge
				stack = stack[:len(stack)-1]
				continue
			}
			if e.w.IsConst(n) {
				mapped[n] = aig.ConstFalse
				stack = stack[:len(stack)-1]
				continue
			}
			if e.w.IsPI(n) {
				// A PI outside the boundary must not be reachable.
				panic(fmt.Sprintf("eco: cone escapes boundary at PI %s", e.w.PIName(e.w.PIIndex(n))))
			}
			f0, f1 := e.w.Fanins(n)
			if !f.expanded {
				stack[len(stack)-1].expanded = true
				if _, ok := mapped[f0.Node()]; !ok {
					stack = append(stack, frame{f0.Node(), false})
				}
				if _, ok := mapped[f1.Node()]; !ok {
					stack = append(stack, frame{f1.Node(), false})
				}
				continue
			}
			a := mapped[f0.Node()].XorCompl(f0.Compl())
			b := mapped[f1.Node()].XorCompl(f1.Compl())
			mapped[n] = patch.And(a, b)
			stack = stack[:len(stack)-1]
		}
		return mapped[start]
	}
	r := build(root.Node()).XorCompl(root.Compl())
	patch.AddPO("patch", r)
	return patch
}

// equiv records the cheapest implementation signal equivalent to an
// AIG node (possibly up to complementation).
type equiv struct {
	name  string
	cost  int
	compl bool // signal = complement of node value
}

// cegarMinPatch improves a structural patch by re-expressing it over
// a minimum-weight cut of implementation signals (§3.6.3): signals of
// F equivalent to nodes of the patch cone form candidate cut points;
// max-flow/min-cut over the cone, with node capacities set to the
// cheapest equivalent signal's weight, yields the new support.
//
// Equivalence detection is structural-by-construction: the patch cone
// and the implementation live in the same hashed AIG, so functionally
// identical structures share nodes.
func (e *engine) cegarMinPatch(i int, m0 aig.Lit) error {
	cone := e.w.ConeNodes([]aig.Lit{m0})
	if len(cone) == 0 || m0.Node() == 0 {
		// Constant patch: no support needed.
		patch := aig.New()
		patch.AddPO("patch", aig.ConstFalse.XorCompl(m0 == aig.ConstTrue))
		e.installPatch(i, patch, nil, true)
		return nil
	}
	// Cheapest equivalent signal per node (complement-insensitive:
	// an inverter is free inside the patch).
	nodeEquiv := make(map[int]equiv)
	for _, d := range e.divisors {
		n := d.edge.Node()
		if cur, ok := nodeEquiv[n]; !ok || d.cost < cur.cost {
			nodeEquiv[n] = equiv{name: d.name, cost: d.cost, compl: d.edge.Compl()}
		}
	}
	e.addFunctionalEquivs(cone, nodeEquiv)

	inCone := make(map[int]int, len(cone)) // w node -> flow index
	for idx, n := range cone {
		inCone[n] = idx
	}
	// Flow network: source (index len(cone)) feeds every leaf (PI or
	// const) of the cone; root drains to sink (len(cone)+1).
	nFlow := len(cone) + 2
	src, snk := len(cone), len(cone)+1
	capOf := func(fi int) int64 {
		if fi >= len(cone) {
			return maxflow.Inf
		}
		n := cone[fi]
		if eq, ok := nodeEquiv[n]; ok {
			return int64(eq.cost)
		}
		return maxflow.Inf
	}
	ng := maxflow.NewNodeGraph(nFlow, capOf)
	for fi, n := range cone {
		if e.w.IsAnd(n) {
			f0, f1 := e.w.Fanins(n)
			ng.Connect(inCone[f0.Node()], fi)
			ng.Connect(inCone[f1.Node()], fi)
		} else {
			// Leaf: PI or constant.
			ng.Connect(src, fi)
		}
	}
	ng.Connect(inCone[m0.Node()], snk)
	cut, flow := ng.MinVertexCutNearSink(src, snk)
	if flow >= maxflow.Inf {
		return fmt.Errorf("no finite cut: some cone leaf has no equivalent signal")
	}
	// Build the patch above the cut.
	boundary := make(map[int]int)
	boundaryCompl := make(map[int]bool)
	var support []string
	pos := make(map[string]int)
	for _, fi := range cut {
		n := cone[fi]
		eq := nodeEquiv[n]
		// Functional matching can map two cut nodes, one the other's
		// complement, to one signal: they share its patch input.
		p, ok := pos[eq.name]
		if !ok {
			p = len(support)
			pos[eq.name] = p
			support = append(support, eq.name)
		}
		boundary[n] = p
		boundaryCompl[n] = eq.compl
	}
	patch := aig.New()
	pis := make([]aig.Lit, len(support))
	for j, name := range support {
		pis[j] = patch.AddPI(name)
	}
	e.extractAboveInto(patch, pis, m0, boundary, boundaryCompl)
	e.installPatch(i, patch, support, true)
	return nil
}

// addFunctionalEquivs widens nodeEquiv with functional matches: cone
// nodes and divisors that agree on 256 random simulation patterns
// (up to complementation) are candidate pairs, confirmed by SAT.
// This is the "functional resubstitution" variant of §3.6.3; the SAT
// queries involve only the implementation logic, so they are far
// cheaper than patch-support queries.
func (e *engine) addFunctionalEquivs(cone []int, nodeEquiv map[int]equiv) {
	const rounds = 4 // 4 × 64 = 256 patterns
	const maxSATChecks = 64
	rng := rand.New(rand.NewSource(12345))
	sigs := make([][rounds]uint64, e.w.NumNodes())
	for r := 0; r < rounds; r++ {
		words := e.w.SimWords(e.w.RandomSimWords(rng))
		for n := range sigs {
			sigs[n][r] = words[n]
		}
	}
	canon := func(n int) ([rounds]uint64, bool) {
		s := sigs[n]
		if s[0]&1 == 1 {
			for i := range s {
				s[i] = ^s[i]
			}
			return s, true
		}
		return s, false
	}
	// Index divisors by canonical signature, cheapest first.
	bySig := make(map[[rounds]uint64][]int)
	for j, d := range e.divisors {
		key, compl := canon(d.edge.Node())
		_ = compl
		bySig[key] = append(bySig[key], j)
	}
	// One incremental solver serves all candidate-pair queries: each
	// check is a selector-guarded assumption on a shared clause
	// database, so cone encodings and learnt clauses amortize across
	// the (up to maxSATChecks) confirmations instead of rebuilding a
	// solver per pair.
	checker := cec.NewPairChecker(e.w, cec.CheckOptions{OnSolver: e.group.add})
	checks := 0
	for _, n := range cone {
		if !e.w.IsAnd(n) {
			continue
		}
		key, nCompl := canon(n)
		cands := bySig[key]
		if len(cands) == 0 {
			continue
		}
		cur, hasCur := nodeEquiv[n]
		for _, j := range cands {
			d := e.divisors[j]
			if hasCur && d.cost >= cur.cost {
				continue
			}
			if d.edge.Node() == n {
				continue // structural match already handled
			}
			if checks >= maxSATChecks {
				return
			}
			checks++
			// The signatures predict the node-level polarity: when the
			// canonical complements differ, value(n) == ¬value(dNode).
			// Confirm with SAT.
			_, dCompl := canon(d.edge.Node())
			rel := nCompl != dCompl // value(n) == value(dNode) XOR rel
			want := aig.MkLit(d.edge.Node(), rel)
			equal, _, err := checker.CheckPair(aig.MkLit(n, false), want)
			if err != nil && checker.Solver().Interrupted() {
				return // deadline hit; stop probing
			}
			if !equal {
				continue
			}
			// signal = value(dNode) XOR edgeCompl = value(n) XOR rel
			// XOR edgeCompl.
			cur = equiv{name: d.name, cost: d.cost, compl: rel != d.edge.Compl()}
			hasCur = true
			nodeEquiv[n] = cur
		}
	}
}
