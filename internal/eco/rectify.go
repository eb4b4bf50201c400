package eco

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ecopatch/internal/aig"
	"ecopatch/internal/cnf"
	"ecopatch/internal/sat"
	"ecopatch/internal/sim"
	"ecopatch/internal/synth"
)

// errBudget reports that a stage's work-meter allotment (stageAllot)
// ran out; the caller falls back, mirroring the paper's timeout path.
var errBudget = errors.New("eco: SAT budget exhausted")

// errCancelled reports that the run's context was cancelled: between
// pipeline stages, or mid-stage, where an interrupted SAT call answers
// Unknown (no engine solver has a conflict cap, so Unknown means
// nothing else). The engine seals a partial result instead of
// treating it as a failure.
var errCancelled = errors.New("eco: solve cancelled")

func (e *engine) usedMoveGuidance() bool { return e.moveGuided }

// rectifyAll runs the Theorem-1 sequence: one-target ECO per target,
// substituting each patch before the next target is processed.
func (e *engine) rectifyAll(forceFullQuant bool) error {
	e.fullQuantForced = forceFullQuant
	e.moveGuided = false
	// The constant-target solver rectifyAllInit creates lives for the
	// whole sequence: registered outside every window's mark, it is
	// interrupted by deadlines and its counters are folded once, here.
	defer e.group.release(e.group.mark())
	e.rectifyAllInit()
	for i := range e.targets {
		// Stage boundary: a cancelled run must not start the next
		// target — each one is a full support+patch pipeline.
		if e.cancelled() {
			return errCancelled
		}
		if err := e.rectifyOne(i); err != nil {
			return err
		}
		e.done[i] = true
	}
	return nil
}

// rectifyOne computes the patch for target i: the constant check
// first, then the SAT pipeline, with the structural method (§3.6) as
// the fallback when the SAT path exhausts its work allotment or the
// divisors cannot express a patch. A cancelled SAT path returns
// errCancelled, which skips the fallback.
func (e *engine) rectifyOne(i int) error {
	defer e.group.release(e.group.mark())
	m0, m1 := e.cofactorMiters(i)
	if done, err := e.constantTarget(i, m0, m1); done || err != nil {
		return err
	}
	if e.opt.ForceStructural {
		return e.structuralPatch(i, m0)
	}
	err := e.satPatch(i, m0, m1)
	if err == nil {
		return nil
	}
	if errors.Is(err, errBudget) || errors.Is(err, errInsufficient) {
		e.logf("target %s: SAT path failed (%v); using structural patch", e.targets[i], err)
		return e.structuralPatch(i, m0)
	}
	return err
}

// constantTarget settles target i without the two-copy pipeline when
// one cofactor miter is unsatisfiable on its own: if M_i(0,x) is, no
// input needs the target at 1 and the constant-0 patch fits; if
// M_i(1,x) is, constant 1 fits. Support selection would return the
// empty support for such a target (every query assuming that root is
// Unsat) and cube enumeration the empty cover or the universal cube,
// so the installed patch is the one the pipeline computes. Both
// queries go to one single-copy encoding of the working AIG shared by
// the whole target sequence, so learnt clauses carry over from target
// to target. Sat on both cofactors is no verdict: the caller runs the
// pipeline.
func (e *engine) constantTarget(i int, m0, m1 aig.Lit) (bool, error) {
	if e.oneCopy == nil {
		return false, nil
	}
	t0 := time.Now()
	defer func() { e.stats.SupportTime += time.Since(t0) }()
	// A cofactor some pattern satisfies needs no SAT call.
	var hit [2]bool
	for _, ws := range e.simRounds(e.simRNG(simConstSeed, i), simConstBankRounds, simConstRandRounds) {
		words := e.simRun(ws)
		hit[0] = hit[0] || aig.WordOf(words, m0) != 0
		hit[1] = hit[1] || aig.WordOf(words, m1) != 0
	}
	for c, m := range []aig.Lit{m0, m1} {
		if hit[c] {
			continue
		}
		e.stats.SATCalls++
		switch e.oneCopy.S.Solve(e.oneCopy.Lit(m)) {
		case sat.Unsat:
			e.logf("target %s: constant %d (one-copy check)", e.targets[i], c)
			patch := aig.New()
			patch.AddPO(e.targets[i], []aig.Lit{aig.ConstFalse, aig.ConstTrue}[c])
			// A non-nil empty support, as the pipeline passes: JSON
			// writes it as [] either way.
			e.installPatch(i, patch, []string{}, false)
			e.targetPatches[i].Cubes = c
			e.stats.ConstantTargets++
			return true, nil
		case sat.Unknown:
			return false, errCancelled
		}
	}
	return false, nil
}

// errInsufficient reports that the divisor set cannot express the
// patch (expression (2) satisfiable).
var errInsufficient = errors.New("eco: divisor set insufficient")

// exprTwoEnc holds the literal map of one expression-(2) encoding:
// both cofactor-miter roots and, per divisor, the two copy literals
// plus the equality selector.
type exprTwoEnc struct {
	r1, r2 sat.Lit
	auxs   []sat.Lit
	d1s    []sat.Lit
	d2s    []sat.Lit
}

// encodeExprTwo encodes the two-copy extended miter of expression (2)
// into s.
func (e *engine) encodeExprTwo(s *sat.Solver, m0, m1 aig.Lit, divs []divisor) exprTwoEnc {
	enc1 := cnf.NewEncoder(s, e.w)
	enc2 := cnf.NewEncoder(s, e.w)
	ec := exprTwoEnc{
		r1:   enc1.Lit(m0),
		r2:   enc2.Lit(m1),
		auxs: make([]sat.Lit, len(divs)),
		d1s:  make([]sat.Lit, len(divs)),
		d2s:  make([]sat.Lit, len(divs)),
	}
	for j, d := range divs {
		ec.d1s[j] = enc1.Lit(d.edge)
		ec.d2s[j] = enc2.Lit(d.edge)
		a := sat.PosLit(s.NewVar())
		// a -> (d1 == d2)
		s.AddClause(a.Not(), ec.d1s[j].Not(), ec.d2s[j])
		s.AddClause(a.Not(), ec.d1s[j], ec.d2s[j].Not())
		ec.auxs[j] = a
	}
	// Capture each copy's PI literals for pattern harvesting. Every
	// cone is fully encoded by now and Encoded() screens the rest, so
	// the capture never alters the clause/variable stream.
	e.winPIs1 = e.capturePIs(enc1)
	e.winPIs2 = e.capturePIs(enc2)
	return ec
}

// satPatch runs the SAT-based flow for one target: the two-copy
// extended miter of expression (2), support selection, and patch
// function computation, over the simulation-pruned divisor subset when
// pruning drops any: it is cheaper to encode and minimize, and it can
// express a patch exactly when the full set can (see pruneDivisors).
func (e *engine) satPatch(i int, m0, m1 aig.Lit) error {
	divs := e.orderedDivisors()
	if e.opt.Support == SupportAnalyzeFinal {
		// The baseline of Table 1 is cost-oblivious: divisors are
		// offered in structural (name) order, so the analyze_final
		// core has no reason to prefer cheap signals.
		divs = append([]divisor(nil), e.divisors...)
		sort.Slice(divs, func(a, b int) bool { return divs[a].name < divs[b].name })
	}
	pruned := e.pruneDivisors(i, divs)
	if pruned == nil {
		pruned = divs
	}
	err := e.satPatchWith(i, m0, m1, pruned)
	if err == nil {
		e.stats.SimPruned += int64(len(divs) - len(pruned))
	}
	return err
}

// satPatchWith is satPatch over one specific divisor set.
func (e *engine) satPatchWith(i int, m0, m1 aig.Lit, divs []divisor) error {
	// The model bank and PI captures are scoped to this encoding; they
	// must not leak into the next window.
	defer func() {
		e.winBank, e.winEqs, e.winPIs1, e.winPIs2 = nil, nil, nil, nil
	}()

	// The support stage starts with the sufficiency proof: the support
	// is read off (or minimized from) its final conflict.
	tSupport := time.Now()
	supportDone := func() { e.stats.SupportTime += time.Since(tSupport) }

	// Expression (2): UNSAT under all equalities iff the divisors can
	// express a patch.
	s := e.newSolver()
	ec := e.encodeExprTwo(s, m0, m1, divs)
	e.stats.SATCalls++
	switch s.Solve(append([]sat.Lit{ec.r1, ec.r2}, ec.auxs...)...) {
	case sat.Sat:
		e.bankModel(s) // the insufficiency witness is a useful pattern
		supportDone()
		return errInsufficient
	case sat.Unknown:
		supportDone()
		return errCancelled
	}
	r1, r2 := ec.r1, ec.r2
	auxs, d1s, d2s := ec.auxs, ec.d1s, ec.d2s
	fixed := []sat.Lit{r1, r2}
	// Feasibility holds; from here to cube enumeration the clause set
	// is frozen, so models of later Sat queries can be banked and
	// replayed against any assumption-only re-solve. Watch everything
	// those queries assume or read back.
	watch := make([]sat.Lit, 0, 2+3*len(divs))
	watch = append(watch, r1, r2)
	watch = append(watch, auxs...)
	watch = append(watch, d1s...)
	watch = append(watch, d2s...)
	e.winBank = sim.NewModelBank(watch, simModelBankMax)
	e.winEqs = make(map[sat.Var][2]sat.Lit, len(auxs))
	for j, a := range auxs {
		e.winEqs[a.Var()] = [2]sat.Lit{d1s[j], d2s[j]}
	}
	// Capture the analyze_final core now; later Solve calls clobber it.
	coreIdx := e.coreSupport(s, auxs)

	selected, err := e.selectSupport(s, fixed, divs, auxs, d1s, d2s, coreIdx)
	if err == nil && e.opt.LastGasp {
		selected, err = e.lastGasp(s, fixed, divs, auxs, selected)
	}
	supportDone()
	if err != nil {
		return err
	}

	// Cube enumeration adds blocking clauses to s, which invalidates
	// every model banked on it: the window bank ends here. Expansion
	// probes run on their own offset solver, which keeps its own bank.
	e.winBank, e.winEqs = nil, nil

	tPatch := time.Now()
	defer func() { e.stats.PatchTime += time.Since(tPatch) }()
	var sop *synth.SOP
	var patch *aig.AIG
	support := make([]string, len(selected))
	for jj, j := range selected {
		support[jj] = divs[j].name
	}
	if e.opt.Patch == PatchInterpolation {
		patch, err = e.interpolatePatch(m0, m1, divs, selected)
		if err != nil {
			return err
		}
	} else {
		sop, err = e.enumerateCubes(s, r1, m1, divs, selected, d1s)
		if err != nil {
			return err
		}
		// Remove cubes the rest of the cover already subsumes (later,
		// larger primes can swallow earlier ones).
		sop.MakeIrredundant()
		patch = aig.New()
		inputs := make([]aig.Lit, len(selected))
		for jj, j := range selected {
			inputs[jj] = patch.AddPI(divs[j].name)
		}
		patch.AddPO(e.targets[i], synth.BuildAIG(patch, inputs, sop))
	}

	e.installPatch(i, patch, support, false)
	if sop != nil {
		e.targetPatches[i].Cubes = len(sop.Cubes)
	}
	return nil
}

// installPatch records the standalone patch AIG for target i, builds
// its edge inside the working AIG, and accounts for costs.
func (e *engine) installPatch(i int, patch *aig.AIG, support []string, structural bool) {
	// Post-synthesis optimization (balance + refactor + cleanup),
	// standing in for the ABC synthesis step of §3.5.
	patch = synth.Optimize(patch)
	// Drop support PIs the synthesized patch does not actually use.
	usedPI := make(map[int]bool)
	for _, p := range patch.SupportPIs([]aig.Lit{patch.PO(0)}) {
		usedPI[p] = true
	}
	if len(usedPI) < patch.NumPIs() {
		slim := aig.New()
		var slimSupport []string
		piMap := make([]aig.Lit, patch.NumPIs())
		for p := 0; p < patch.NumPIs(); p++ {
			if usedPI[p] {
				piMap[p] = slim.AddPI(patch.PIName(p))
				slimSupport = append(slimSupport, support[p])
			} else {
				piMap[p] = aig.ConstFalse // unused: value irrelevant
			}
		}
		root := aig.Transfer(slim, patch, piMap, []aig.Lit{patch.PO(0)})[0]
		slim.AddPO(patch.POName(0), root)
		patch, support = slim, slimSupport
	}
	// Costs are accounted in support order, and the working-AIG edge is
	// built from the unsorted patch (its structure feeds the cones of
	// later targets); only then are Support and the stored AIG's PI
	// order sorted.
	cost := 0
	for _, sname := range support {
		if !e.usedSignals[sname] {
			cost += e.inst.Weights.Cost(sname)
		}
		e.usedSignals[sname] = true
	}
	// Edge in the working AIG over the support signal edges.
	inW := make([]aig.Lit, len(support))
	for j, sname := range support {
		inW[j] = e.sigEdge[sname]
	}
	e.patches[i] = aig.Transfer(e.w, patch, inW, []aig.Lit{patch.PO(0)})[0]
	e.targetPatches[i] = TargetPatch{
		Target:     e.targets[i],
		Support:    support,
		Cost:       cost,
		Gates:      patch.ConeSize([]aig.Lit{patch.PO(0)}),
		Structural: structural,
	}
	sort.Strings(e.targetPatches[i].Support)
	// Keep the patch AIG's PI order aligned with Support after sort.
	e.patchAIGs[i] = reorderPIs(patch, e.targetPatches[i].Support)
	e.logf("target %s: |support|=%d cost=%d gates=%d structural=%v",
		e.targets[i], len(support), cost, e.targetPatches[i].Gates, structural)
}

// reorderPIs rebuilds the patch AIG with PIs in the given name order.
func reorderPIs(patch *aig.AIG, order []string) *aig.AIG {
	pos := make(map[string]int, patch.NumPIs())
	for p := 0; p < patch.NumPIs(); p++ {
		pos[patch.PIName(p)] = p
	}
	out := aig.New()
	piMap := make([]aig.Lit, patch.NumPIs())
	for _, name := range order {
		piMap[pos[name]] = out.AddPI(name)
	}
	root := aig.Transfer(out, patch, piMap, []aig.Lit{patch.PO(0)})[0]
	out.AddPO(patch.POName(0), root)
	return out
}

// selectSupport dispatches on the configured support algorithm and
// returns indices into divs.
func (e *engine) selectSupport(s *sat.Solver, fixed []sat.Lit, divs []divisor,
	auxs []sat.Lit, d1s, d2s []sat.Lit, coreIdx []int) ([]int, error) {
	switch e.opt.Support {
	case SupportAnalyzeFinal:
		return coreIdx, nil
	case SupportMinimize:
		return e.minimizeSupport(s, fixed, auxs, divs, coreIdx)
	case SupportExact:
		sel, err := e.exactSupport(s, fixed, divs, auxs, d1s, d2s)
		if errors.Is(err, errBudget) {
			// Exact search over budget: degrade to minimal.
			e.logf("SAT_prune over budget; degrading to minimize_assumptions")
			return e.minimizeSupport(s, fixed, auxs, divs, coreIdx)
		}
		return sel, err
	}
	return nil, fmt.Errorf("eco: unknown support algorithm %v", e.opt.Support)
}

// coreSupport implements the baseline: the assumption core from the
// solver's final conflict (analyze_final).
func (e *engine) coreSupport(s *sat.Solver, auxs []sat.Lit) []int {
	var out []int
	for j, a := range auxs {
		if s.Failed(a) {
			out = append(out, j)
		}
	}
	return out
}

// minimizeSupport runs minimize_assumptions (Algorithm 1) over the
// equality selectors, ordered by ascending cost. Two minimizations
// are performed — one over the full divisor order and one shrinking
// the solver's analyze_final core — and the cheaper result wins, so
// the cost-aware method never loses to the baseline on a target.
func (e *engine) minimizeSupport(s *sat.Solver, fixed []sat.Lit, auxs []sat.Lit,
	divs []divisor, coreIdx []int) ([]int, error) {
	idx := make(map[sat.Lit]int, len(auxs))
	for j, a := range auxs {
		idx[a] = j
	}
	run := func(arr []sat.Lit) ([]int, error) {
		m := &minimizer{s: s, fixed: fixed, calls: &e.stats.MinimizeCalls,
			satCalls: &e.stats.SATCalls, bank: e.winBank,
			elided: &e.stats.SimElided, onSat: func() { e.bankModel(s) }}
		kept, err := m.minimize(arr)
		if err != nil {
			return nil, err
		}
		out := make([]int, 0, kept)
		for _, a := range arr[:kept] {
			out = append(out, idx[a])
		}
		sort.Ints(out)
		return out, nil
	}
	cost := func(sel []int) int {
		c := 0
		for _, j := range sel {
			c += divs[j].cost
		}
		return c
	}

	full, err := run(append([]sat.Lit(nil), auxs...))
	if err != nil {
		return nil, err
	}
	coreArr := make([]sat.Lit, 0, len(coreIdx))
	for _, j := range coreIdx {
		coreArr = append(coreArr, auxs[j]) // ascending cost preserved
	}
	shrunk, err := run(coreArr)
	if err != nil {
		return nil, err
	}
	if cost(shrunk) < cost(full) || (cost(shrunk) == cost(full) && len(shrunk) < len(full)) {
		return shrunk, nil
	}
	return full, nil
}

// lastGasp greedily tries to replace each selected divisor with a
// cheaper unselected one (§3.4.1, last paragraph).
func (e *engine) lastGasp(s *sat.Solver, fixed []sat.Lit, divs []divisor, auxs []sat.Lit, selected []int) ([]int, error) {
	inSel := make(map[int]bool, len(selected))
	for _, j := range selected {
		inSel[j] = true
	}
	// Try most expensive selected first.
	order := append([]int(nil), selected...)
	sort.Slice(order, func(a, b int) bool { return divs[order[a]].cost > divs[order[b]].cost })
	// Scratch assumption buffer, reused across the O(|sel|·|divs|)
	// probes like minimizer.scratch — a fresh slice per probe is
	// measurable garbage on this double loop.
	scratch := make([]sat.Lit, 0, len(fixed)+len(selected))
	for _, j := range order {
		for j2 := range divs {
			if inSel[j2] || divs[j2].cost >= divs[j].cost {
				continue
			}
			assumps := append(scratch[:0], fixed...)
			for _, k := range selected {
				if k == j {
					assumps = append(assumps, auxs[j2])
				} else {
					assumps = append(assumps, auxs[k])
				}
			}
			scratch = assumps
			e.stats.SATCalls++
			var st sat.Status
			if e.winBank != nil && e.winBank.Find(assumps) >= 0 {
				// A banked model satisfies the swapped selector set:
				// the replacement is infeasible (Sat) — no solver work.
				e.stats.SimElided++
				st = sat.Sat
			} else {
				st = s.Solve(assumps...)
				if st == sat.Sat {
					e.bankModel(s)
				}
			}
			if st == sat.Unknown {
				return nil, errCancelled
			}
			if st == sat.Unsat {
				inSel[j] = false
				inSel[j2] = true
				for k := range selected {
					if selected[k] == j {
						selected[k] = j2
					}
				}
				break
			}
		}
	}
	sort.Ints(selected)
	return selected, nil
}
