package eco

import (
	"errors"
	"fmt"
	"time"

	"ecopatch/internal/aig"
	"ecopatch/internal/cec"
	"ecopatch/internal/netlist"
)

// verify substitutes all patches into the implementation outputs and
// checks combinational equivalence with the specification over every
// output (task (4) of the paper's ECO decomposition).
func (e *engine) verify() (bool, error) {
	defer e.group.release(e.group.mark())
	start := time.Now()
	defer func() { e.stats.VerifyTime += time.Since(start) }()
	piMap := e.selfPIMap()
	for j := range e.targets {
		piMap[e.tPIs[j]] = e.patches[j]
	}
	patched := aig.Transfer(e.w, e.w, piMap, e.implPOs)
	res, err := cec.CheckLitsOpt(e.w, patched, e.specPOs, cec.CheckOptions{
		OnSolver: e.group.add,
	})
	if err != nil {
		if errors.Is(err, cec.ErrGaveUp) {
			// Interrupted (deadline): no verdict, so the patch cannot
			// be reported as verified.
			e.logf("verification aborted (%v); reporting unverified", err)
			return false, nil
		}
		return false, err
	}
	if !res.Equivalent {
		e.logf("verification failed at output %d", res.FailingOutput)
		if res.Counterexample != nil {
			// The counterexample is a care pattern the retry pass (and
			// later windows) should simulate divisors against.
			e.addPattern(res.Counterexample)
		}
	}
	return res.Equivalent, nil
}

// VerifyPatch is the standalone checker: given an instance and a
// patch module (inputs = implementation signals, outputs = targets),
// it splices the patch into the implementation and checks equivalence
// against the specification. Used by cmd/eco and the test suite to
// validate patches independently of the engine that produced them.
func VerifyPatch(inst *Instance, patch *netlist.Netlist) (bool, error) {
	implRes, err := netlist.ToAIG(inst.Impl)
	if err != nil {
		return false, err
	}
	specRes, err := netlist.ToAIG(inst.Spec)
	if err != nil {
		return false, err
	}
	targets := implRes.Targets
	w := aig.New()
	nIn := len(inst.Impl.Inputs)
	piMap := make([]aig.Lit, implRes.G.NumPIs())
	for i := 0; i < nIn; i++ {
		piMap[i] = w.AddPI(inst.Impl.Inputs[i])
	}

	// Bring all named implementation signals over so patch inputs can
	// be resolved; targets temporarily map to placeholder PIs that are
	// replaced below.
	tPI := make([]int, len(targets))
	for i := range targets {
		tPI[i] = w.NumPIs()
		piMap[nIn+i] = w.AddPI(targets[i])
	}
	var names []string
	for name := range implRes.Signals {
		names = append(names, name)
	}
	roots := make([]aig.Lit, 0, len(names)+implRes.G.NumPOs())
	for _, n := range names {
		roots = append(roots, implRes.Signals[n])
	}
	for i := 0; i < implRes.G.NumPOs(); i++ {
		roots = append(roots, implRes.G.PO(i))
	}
	moved := aig.Transfer(w, implRes.G, piMap, roots)
	sigEdge := make(map[string]aig.Lit, len(names))
	for i, n := range names {
		sigEdge[n] = moved[i]
	}
	implPOs := moved[len(names):]

	// Patch module to AIG; its PIs are implementation signal names.
	patchRes, err := netlist.ToAIG(patch)
	if err != nil {
		return false, err
	}
	if len(patchRes.Targets) != 0 {
		return false, fmt.Errorf("eco: patch module has undriven signals %v", patchRes.Targets)
	}
	pMap := make([]aig.Lit, patchRes.G.NumPIs())
	for i := 0; i < patchRes.G.NumPIs(); i++ {
		name := patchRes.G.PIName(i)
		edge, ok := sigEdge[name]
		if !ok {
			return false, fmt.Errorf("eco: patch input %q is not an implementation signal", name)
		}
		pMap[i] = edge
	}
	// Patch inputs must not depend on the targets (no feedback loops).
	for i := range pMap {
		for _, sup := range w.SupportPIs([]aig.Lit{pMap[i]}) {
			for _, tp := range tPI {
				if sup == tp {
					return false, fmt.Errorf("eco: patch input %q depends on a target", patchRes.G.PIName(i))
				}
			}
		}
	}
	patchOut := make(map[string]aig.Lit, patchRes.G.NumPOs())
	pRoots := make([]aig.Lit, patchRes.G.NumPOs())
	for i := range pRoots {
		pRoots[i] = patchRes.G.PO(i)
	}
	pMoved := aig.Transfer(w, patchRes.G, pMap, pRoots)
	for i := 0; i < patchRes.G.NumPOs(); i++ {
		patchOut[patchRes.G.POName(i)] = pMoved[i]
	}

	// Substitute the patch outputs for the target PIs.
	subst := make([]aig.Lit, w.NumPIs())
	for i := range subst {
		subst[i] = w.PI(i)
	}
	for i, t := range targets {
		edge, ok := patchOut[t]
		if !ok {
			return false, fmt.Errorf("eco: patch module does not drive target %q", t)
		}
		subst[tPI[i]] = edge
	}
	patched := aig.Transfer(w, w, subst, implPOs)

	// Specification over the shared inputs.
	sMap := make([]aig.Lit, specRes.G.NumPIs())
	for i := 0; i < nIn; i++ {
		sMap[i] = w.PI(i)
	}
	sRoots := make([]aig.Lit, specRes.G.NumPOs())
	for i := range sRoots {
		sRoots[i] = specRes.G.PO(i)
	}
	specPOs := aig.Transfer(w, specRes.G, sMap, sRoots)

	res, err := cec.CheckLits(w, patched, specPOs)
	if err != nil {
		return false, err
	}
	return res.Equivalent, nil
}
