package eco

import (
	"math/rand"

	"ecopatch/internal/aig"
	"ecopatch/internal/cec"
	"ecopatch/internal/cnf"
	"ecopatch/internal/sat"
	"ecopatch/internal/sim"
)

// This file is the engine side of the bit-parallel simulation layer:
// harvesting models and counterexamples into the cross-window pattern
// pool, banking window models for SAT-call elision, and
// simulation-guided divisor pruning.

const (
	// simModelBankMax caps banked models per window bank and per
	// offset bank of cube expansion; support selection rarely produces
	// more than a few hundred distinct Sat answers.
	simModelBankMax = 1024
	// simPatternPoolMax caps the cross-window input pattern pool, which
	// is append-only, so every simulation round stays bounded.
	simPatternPoolMax = 256
	// simPruneMinDivs skips pruning on tiny divisor sets where the
	// encoding is already cheap and signatures are too short to trust.
	simPruneMinDivs = 8
	// simPruneRandRounds / simPruneBankRounds bound the 64-pattern
	// simulation rounds fed to pruning from each source.
	simPruneRandRounds = 4
	simPruneBankRounds = 4
	// simPruneSeed seeds the pruning RNG (see simRNG).
	simPruneSeed = 0x5eedc0de
	// simConstSeed and the round counts drive the simulation that
	// spares the constant-target check its SAT calls: a cofactor miter
	// some pattern satisfies cannot be unsatisfiable.
	simConstSeed       = 0xc0257a27
	simConstBankRounds = 1
	simConstRandRounds = 2
	// simPruneProofBudget bounds each drop-confirmation SAT check (in
	// conflicts). Window cones are small; an exceeded budget keeps the
	// divisor, which is always safe.
	simPruneProofBudget = 10000
)

// addPattern pools one full working-AIG input assignment (indexed by
// PI position).
func (e *engine) addPattern(assign []bool) {
	if e.patterns == nil {
		return
	}
	if e.patterns.Add(assign) {
		e.stats.SimPatterns++
	}
}

// auxModel wraps a solver model, strengthening each equality
// selector's value to the actual divisor-copy equality it guards:
// aux_j reads as (d1_j == d2_j) instead of the value the solver
// happened to assign (phase saving leaves unassumed selectors false,
// which would make banked models useless for elision). Sound because
// each aux variable occurs only in its two implication clauses
// a -> (d1 == d2), which the strengthened assignment satisfies — so it
// is still a model of the original formula.
type auxModel struct {
	m   sim.Model
	eqs map[sat.Var][2]sat.Lit
}

func (am auxModel) ModelBool(l sat.Lit) bool {
	if dd, ok := am.eqs[l.Var()]; ok {
		v := am.m.ModelBool(dd[0]) == am.m.ModelBool(dd[1])
		return v != l.Sign()
	}
	return am.m.ModelBool(l)
}

// bankModel records one satisfiable query's model: into the window's
// model bank (aux-strengthened) for elision of later assumption-only
// solves, and — via its per-copy PI projections — into the pattern
// pool for divisor pruning of later windows.
func (e *engine) bankModel(m sim.Model) {
	if e.winBank != nil {
		if e.winBank.Add(auxModel{m: m, eqs: e.winEqs}) {
			e.stats.SimPatterns++
		}
	}
	e.harvestPIs(m)
}

// harvestPIs pools the two input patterns a model of the two-copy
// encoding exposes (one per copy). Unencoded PIs — outside the
// window's cones — read as false.
func (e *engine) harvestPIs(m sim.Model) {
	for _, pis := range [][]sat.Lit{e.winPIs1, e.winPIs2} {
		assign := make([]bool, len(pis))
		for i, l := range pis {
			if l != sat.LitUndef {
				assign[i] = m.ModelBool(l)
			}
		}
		e.addPattern(assign)
	}
}

// capturePIs records the solver literal of every PI of e.w under enc,
// LitUndef for PIs outside the encoded cones. Encoded() is checked
// first so the capture never extends the clause stream.
func (e *engine) capturePIs(enc *cnf.Encoder) []sat.Lit {
	out := make([]sat.Lit, e.w.NumPIs())
	for i := range out {
		l := e.w.PI(i)
		if enc.Encoded(l.Node()) {
			out[i] = enc.Lit(l)
		} else {
			out[i] = sat.LitUndef
		}
	}
	return out
}

// pruneDivisors simulates the window on pooled + random patterns to
// find divisors whose signatures are constant or duplicate an earlier
// (cheaper — divs arrive cost-sorted) divisor's up to complement, then
// confirms every candidate drop with a budgeted SAT equivalence check
// (SAT sweeping): only proven-redundant divisors are removed, so the
// patch function space over the pruned set equals the full set's up to
// cost-preserving substitution. A refuted candidate stays, and its
// counterexample joins the pattern pool, sharpening later signatures.
// A dropped divisor is constant or equal to a kept one, so two copies
// that agree on the kept divisors agree on it too: expression (2) is
// unsatisfiable over the pruned set exactly when it is over the full
// set, and the caller never needs the full set back. Returns nil when
// the set is small or nothing was dropped.
//
// All of one call's proofs run on a single incremental checker, so the
// window's cones are encoded once and learnt clauses carry over from
// candidate to candidate; the checker lives exactly as long as the call.
func (e *engine) pruneDivisors(i int, divs []divisor) []divisor {
	if len(divs) < simPruneMinDivs {
		return nil
	}
	// Analyze-final reads the support straight off the feasibility
	// proof's final conflict, so the selection is proof-shaped, not
	// status-driven: shrinking the encoded divisor set steers the
	// solver to a different (equally valid) proof whose conflict can
	// name a costlier support. Minimize/exact selection depends only on
	// per-query statuses (and proven-equivalent sets preserve those),
	// so the set change is restricted to them.
	if e.opt.Support == SupportAnalyzeFinal {
		return nil
	}
	rounds := e.simRounds(e.simRNG(simPruneSeed, i), simPruneBankRounds, simPruneRandRounds)
	sigs := make([][]uint64, len(divs))
	for j := range sigs {
		sigs[j] = make([]uint64, len(rounds))
	}
	for r, ws := range rounds {
		words := e.simRun(ws)
		for j, d := range divs {
			sigs[j][r] = aig.WordOf(words, d.edge)
		}
	}

	var pc *cec.PairChecker
	prove := func(a, b aig.Lit) bool {
		if pc == nil {
			pc = cec.NewPairChecker(e.w, cec.CheckOptions{
				MaxConflicts: simPruneProofBudget,
				OnSolver:     e.group.add,
			})
		}
		equal, cex, err := pc.CheckPair(a, b)
		if cex != nil {
			e.addPattern(cex)
		}
		// ErrGaveUp (budget or deadline) keeps the divisor.
		return err == nil && equal
	}

	type rep struct {
		edge aig.Lit
		sg   []uint64
	}
	kept := make([]divisor, 0, len(divs))
	byKey := make(map[uint64][]rep)
	constant, dups := 0, 0
	for j, d := range divs {
		sg := sigs[j]
		if constWords(sg) {
			c := aig.ConstFalse
			if len(sg) > 0 && sg[0] == ^uint64(0) {
				c = aig.ConstTrue
			}
			if prove(d.edge, c) {
				constant++
				continue
			}
		}
		k, _ := sim.CanonKey(sg)
		dup := false
		for _, prev := range byKey[k] {
			if !sim.CanonEqual(prev.sg, sg) {
				continue
			}
			// The canonical signatures agree; the raw words say whether
			// the candidate matches the representative or its complement.
			other := prev.edge
			if !rawEqual(prev.sg, sg) {
				other = other.Not()
			}
			if prove(d.edge, other) {
				dup = true
				break
			}
		}
		if dup {
			dups++
			continue
		}
		byKey[k] = append(byKey[k], rep{edge: d.edge, sg: sg})
		kept = append(kept, d)
	}
	if len(kept) == len(divs) {
		return nil
	}
	e.logf("target %s: sim pruning %d/%d divisors (%d constant, %d duplicate, all SAT-proven) over %d patterns",
		e.targets[i], len(divs)-len(kept), len(divs), constant, dups, len(rounds)*64)
	return kept
}

// simRNG returns the deterministic RNG of one window's simulation,
// seeded from seed and the target index, so a window's patterns do not
// depend on how many simulations ran before it.
func (e *engine) simRNG(seed int64, i int) *rand.Rand {
	seed ^= int64(i) << 1
	if e.fullQuantForced {
		seed ^= 1 // the retry pass simulates independently of the first
	}
	return rand.New(rand.NewSource(seed))
}

// simRounds builds 64-pattern simulation rounds over the PIs of w: up
// to bankRounds from the pattern pool, then randRounds random ones.
func (e *engine) simRounds(rng *rand.Rand, bankRounds, randRounds int) [][]uint64 {
	nPI := e.w.NumPIs()
	var rounds [][]uint64
	nb := min(e.patterns.Rounds(), bankRounds)
	for r := 0; r < nb; r++ {
		ws := make([]uint64, nPI)
		for p := 0; p < nPI; p++ {
			ws[p] = e.patterns.Word(p, r)
		}
		// Top up a partly-filled word with random bits so it still
		// discriminates beyond the pooled patterns.
		if valid := e.patterns.Patterns() - r*64; valid < 64 {
			for p := range ws {
				ws[p] |= rng.Uint64() << uint(valid)
			}
		}
		rounds = append(rounds, ws)
	}
	for r := 0; r < randRounds; r++ {
		rounds = append(rounds, e.w.RandomSimWords(rng))
	}
	return rounds
}

// simRun simulates one round on the lazily built simulator of w; the
// node words are valid until the next call.
func (e *engine) simRun(ws []uint64) []uint64 {
	if e.simr == nil {
		e.simr = aig.NewSimulator(e.w)
	}
	return e.simr.Run(ws)
}

// rawEqual reports bitwise equality of two equal-length signatures.
func rawEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// constWords reports an all-equal-bits signature.
func constWords(sg []uint64) bool {
	if len(sg) == 0 {
		return true
	}
	w0 := sg[0]
	if w0 != 0 && w0 != ^uint64(0) {
		return false
	}
	for _, w := range sg[1:] {
		if w != w0 {
			return false
		}
	}
	return true
}
