package eco

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"ecopatch/internal/aig"
	"ecopatch/internal/cnf"
	"ecopatch/internal/netlist"
	"ecopatch/internal/sat"
	"ecopatch/internal/sim"
)

// SupportAlgo selects the patch-support minimization algorithm (§3.4).
type SupportAlgo int

// Support algorithms, in increasing effort order.
const (
	// SupportAnalyzeFinal uses the raw assumption core returned by
	// the SAT solver (MiniSat analyze_final) — the paper's baseline,
	// Table 1 columns 7–9.
	SupportAnalyzeFinal SupportAlgo = iota
	// SupportMinimize runs the minimize_assumptions procedure of
	// Algorithm 1 — Table 1 columns 10–12 (contest winner).
	SupportMinimize
	// SupportExact runs SAT-prune, the exact minimum-cost support
	// computation of §3.4.2 — Table 1 columns 13–15.
	SupportExact
)

func (a SupportAlgo) String() string {
	switch a {
	case SupportAnalyzeFinal:
		return "analyze_final"
	case SupportMinimize:
		return "minimize_assumptions"
	case SupportExact:
		return "SAT_prune"
	}
	return "unknown"
}

// PatchMethod selects how the patch function is derived once the
// support is known.
type PatchMethod int

// Patch computation methods.
const (
	// PatchCubeEnum enumerates prime cubes with the SAT solver (§3.5).
	PatchCubeEnum PatchMethod = iota
	// PatchInterpolation computes a Craig interpolant from the proof
	// of expression (3) — the prior-work [15] baseline.
	PatchInterpolation
)

func (m PatchMethod) String() string {
	if m == PatchInterpolation {
		return "interpolation"
	}
	return "cube_enumeration"
}

// Options configures the engine. The zero value is NOT the default;
// use DefaultOptions.
type Options struct {
	Support SupportAlgo
	Patch   PatchMethod

	// Window enables structural pruning (§3.3). Disabling it is the
	// E9 ablation: divisors and miter outputs span the whole netlist.
	Window bool
	// LastGasp enables the greedy divisor-replacement pass after
	// support minimization (§3.4.1, last paragraph).
	LastGasp bool
	// CEGARMin enables max-flow/min-cut improvement of structural
	// patches (§3.6.3). Its cut candidates include functional
	// matches: pairs found by 256-bit simulation signatures and
	// confirmed by SAT, the "functional resubstitution" variant.
	CEGARMin bool
	// ForceStructural skips SAT-based patch computation entirely,
	// exercising the timeout path of §3.6 deterministically.
	ForceStructural bool

	// MaxQuantExpand caps the number of remaining targets quantified
	// by full 2^r cofactor expansion; beyond it the engine uses the
	// QBF countermoves (move-guided quantification). Default 8.
	MaxQuantExpand int
	// Parallelism is kept only so existing callers still compile.
	//
	// Deprecated: ignored; every solve is serial.
	Parallelism int

	// Timeout caps the wall-clock time of the whole solve. On expiry
	// every active SAT solver is interrupted and the engine stops at
	// the next stage boundary (target, support/patch phase, or the
	// final verification): in-flight SAT work returns Unknown, no new
	// stage is started, and the result comes back with TimedOut set,
	// stats intact. Zero means no limit. SolveContext offers the same
	// mechanism for caller-supplied contexts.
	Timeout time.Duration

	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// DefaultOptions returns the configuration matching the paper's
// best flow (minimize_assumptions + cube enumeration + windowing).
func DefaultOptions() Options {
	return Options{
		Support:        SupportMinimize,
		Patch:          PatchCubeEnum,
		Window:         true,
		LastGasp:       true,
		CEGARMin:       true,
		MaxQuantExpand: 8,
	}
}

// AppendKey appends a fixed-length encoding of every option that can
// change what a solve computes; ecod's request digest hashes it, so a
// stored result is reused only under the options that produced it.
// Timeout, Log and the deprecated Parallelism are left out: a deadline
// only cuts a solve short (the digest hashes Timeout on its own), and
// the others never change a result. A new field that can change a
// result belongs here. The word layout is part of the digest, so
// changing it changes every digest: the retired conflict budget (word
// 3, fixed at 0), MaxCubes and ExactTimeout options keep their words,
// fixed at the old defaults.
func (o Options) AppendKey(buf []uint64) []uint64 {
	// Bits 3 and 4 held the retired functional-matching and 2QBF-choice
	// flags; they stay set, as at their old defaults.
	flags := uint64(1<<3 | 1<<4)
	for bit, on := range [...]bool{0: o.Window, 1: o.LastGasp, 2: o.CEGARMin, 5: o.ForceStructural} {
		if on {
			flags |= 1 << uint(bit)
		}
	}
	return append(buf,
		uint64(o.Support), uint64(o.Patch), flags,
		0, 20000, uint64(o.MaxQuantExpand),
		uint64(30*time.Second))
}

// TargetPatch describes the patch computed for one target. Its JSON
// form is the target entry of both eco -json and ecod's job result.
type TargetPatch struct {
	Target     string   `json:"target"`
	Support    []string `json:"support"`              // impl signal names feeding the patch
	Cost       int      `json:"cost"`                 // sum of support weights (each signal counted once globally)
	Gates      int      `json:"gates"`                // AND nodes of the factored patch cone
	Cubes      int      `json:"cubes,omitempty"`      // SOP cubes (0 for structural patches)
	Structural bool     `json:"structural,omitempty"` // true when derived by the §3.6 fallback
}

// Stats aggregates engine counters for the experiment harness.
type Stats struct {
	// SATCalls counts every top-level engine query: each one is either
	// answered by a solver or elided by the simulation pattern bank, so
	// the invariant SATCalls = solver-answered + SimElided holds. (The raw
	// kernel counter Solver.SolveCalls counts only actual solver
	// invocations, including the minimizer's — those are additionally
	// broken out in MinimizeCalls.)
	SATCalls        int64
	MinimizeCalls   int // SAT calls spent inside support minimization
	MiterCopies     int // cofactor copies built for universal quantification
	QBFCopies       int // copies used by the 2QBF CEGAR check
	Divisors        int // candidate divisors offered to support selection
	WindowPOs       int // outputs kept by structural pruning
	StructuralFixes int // targets patched by the structural fallback
	ConstantTargets int // targets settled as constants by the one-copy check
	CubesEnumerated int

	// Simulation-layer counters: queries answered from the pattern
	// bank without a solver, divisors dropped by simulation-guided
	// pruning on successfully pruned windows, and patterns captured
	// (banked models plus pooled input patterns).
	SimElided   int64
	SimPruned   int64
	SimPatterns int64

	// Per-stage wall clock, summed over all targets, for the
	// machine-readable perf trajectory (ecobench -json).
	SupportTime time.Duration // constant check, sufficiency proof, support selection incl. last-gasp
	PatchTime   time.Duration // patch-function computation (SAT or structural)
	VerifyTime  time.Duration // final equivalence checks

	// Solver aggregates the raw kernel counters (decisions,
	// propagations, conflicts, restarts, learnt-DB churn) of every SAT
	// solver created during the run, for per-solver profiling in
	// ecobench reports.
	Solver sat.Stats
}

// Add accumulates o into s, for aggregating counters across solves
// (the ecod daemon sums every finished job's Stats into its /metrics
// surface). Time fields add; counters add; Solver adds fieldwise.
func (s *Stats) Add(o Stats) {
	s.SATCalls += o.SATCalls
	s.MinimizeCalls += o.MinimizeCalls
	s.MiterCopies += o.MiterCopies
	s.QBFCopies += o.QBFCopies
	s.Divisors += o.Divisors
	s.WindowPOs += o.WindowPOs
	s.StructuralFixes += o.StructuralFixes
	s.ConstantTargets += o.ConstantTargets
	s.CubesEnumerated += o.CubesEnumerated
	s.SimElided += o.SimElided
	s.SimPruned += o.SimPruned
	s.SimPatterns += o.SimPatterns
	s.SupportTime += o.SupportTime
	s.PatchTime += o.PatchTime
	s.VerifyTime += o.VerifyTime
	s.Solver.Add(o.Solver)
}

// Result is the outcome of Solve.
type Result struct {
	// Feasible reports that the target set is sufficient (expression
	// (1) UNSAT): certified by a verified patch, or decided by the
	// feasibility check when it runs (see SolveContext). False with
	// TimedOut set means no verdict was reached.
	Feasible bool
	Verified bool // patched implementation equivalent to spec
	// TimedOut reports that Options.Timeout (or the caller's context)
	// expired during the solve. If it expired before every target was
	// patched, Patches is empty; otherwise the patches are usually
	// unverified (see SolveContext).
	TimedOut bool

	Patches []TargetPatch
	// Patch is the synthesized patch module: inputs are the union of
	// supports, outputs are the target signals.
	Patch *netlist.Netlist

	TotalCost  int // cost of the union of all patch supports
	TotalGates int // AND nodes of the combined patch logic

	Stats   Stats
	Elapsed time.Duration
}

// divisor is one candidate support signal.
type divisor struct {
	name string
	edge aig.Lit // value in the working AIG (function of x only)
	cost int
}

// engine carries the per-solve state.
type engine struct {
	inst *Instance
	opt  Options

	// ctx is the run's context. SAT calls observe cancellation via the
	// solverGroup watcher; pure-CPU stages (windowing, structural
	// patches, synthesis) poll cancelled() at stage boundaries so a
	// cancelled job stops instead of burning a full stage on work
	// nobody will read.
	ctx context.Context

	w       *aig.AIG
	xPIs    []int // PI positions in w for the shared inputs
	tPIs    []int // PI positions in w for the targets
	targets []string

	implPOs   []aig.Lit
	specPOs   []aig.Lit
	miter     aig.Lit // M(t, x) over the window outputs
	fullMiter aig.Lit // M(t, x) over every output (feasibility check)

	fullQuantForced bool // retry pass: ignore move guidance
	moveGuided      bool // set when a patch used move-guided quantification

	sigEdge  map[string]aig.Lit
	divisors []divisor // sorted by ascending cost

	patches []aig.Lit // per-target patch edge in w (function of x)
	done    []bool

	// Per-target results: a standalone AIG (PIs = Support order, one
	// PO) so the patch can be rebuilt in any destination graph.
	targetPatches []TargetPatch
	patchAIGs     []*aig.AIG

	usedSignals map[string]bool // support already paid for

	moves [][]bool // QBF countermoves over the targets

	// Simulation-layer state (see sim.go): the cross-window input
	// pattern pool, a reusable window simulator for divisor pruning,
	// and the per-window model bank with its aux-equality map and
	// captured per-copy PI literal vectors.
	patterns *sim.PatternBank
	simr     *aig.Simulator
	winBank  *sim.ModelBank
	winEqs   map[sat.Var][2]sat.Lit
	winPIs1  []sat.Lit
	winPIs2  []sat.Lit

	// oneCopy is the single-copy encoding of w that constantTarget
	// queries, shared by one rectifyAll's whole target sequence.
	oneCopy *cnf.Encoder

	group solverGroup // every SAT solver of this run, for interrupts

	stats Stats
	res   *Result
}

func (e *engine) logf(format string, args ...any) {
	if e.opt.Log != nil {
		fmt.Fprintf(e.opt.Log, format+"\n", args...)
	}
}

// newSolver creates a SAT solver registered for deadline interrupts.
// No engine solver has a conflict cap, so Unknown from one means the
// run was cancelled.
func (e *engine) newSolver() *sat.Solver {
	s := sat.New()
	e.group.add(s)
	return s
}

// Solve runs the full ECO flow on the instance.
func Solve(inst *Instance, opt Options) (*Result, error) {
	return SolveContext(context.Background(), inst, opt)
}

// SolveContext is Solve under a context: when ctx is canceled or its
// deadline (or Options.Timeout, whichever is tighter) expires, every
// active SAT solver is interrupted and the engine stops at the next
// stage boundary, returning a result with TimedOut set rather than
// hanging. A run cut short before every target was patched carries no
// patches (no structural fallback is built for a cancelled run); one
// cut short later carries its patches unverified. Stats and Elapsed
// are always populated.
//
// The feasibility verdict (expression (1), Result.Feasible) is lazy.
// With more than MaxQuantExpand+1 targets the check runs first, as in
// §3.2, because its countermoves guide quantification (§3.6.2).
// Otherwise the Theorem-1 sequence and the final verification run at
// once: a verified patch certifies feasibility, and only a failed
// verification runs the check. An infeasible verdict returns no
// patches; a feasible one keeps the unverified result. Feasible is set
// only from a finished check or a verified patch: a run cut short
// before either has Feasible false and TimedOut set. A check that gives
// up without a cancel (qbf's iteration cap) leaves the verified patch
// to certify feasibility; if verification fails too, SolveContext
// returns an error rather than a guess.
func SolveContext(ctx context.Context, inst *Instance, opt Options) (*Result, error) {
	start := time.Now()
	if err := inst.Check(); err != nil {
		return nil, err
	}
	if opt.MaxQuantExpand <= 0 {
		opt.MaxQuantExpand = 8
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	e := &engine{inst: inst, opt: opt, ctx: ctx, res: &Result{}}
	stop := e.group.watch(ctx)
	defer stop()
	if err := e.setup(); err != nil {
		return nil, err
	}
	if e.cancelled() {
		return e.seal(ctx, start), nil
	}
	// Countermoves guide quantification only when more than
	// MaxQuantExpand other targets remain.
	upFront := len(e.targets)-1 > opt.MaxQuantExpand
	decided := false // the up-front check reached a verdict
	if upFront {
		e.logf("feasibility: 2QBF check first (%d targets exceed MaxQuantExpand+1 = %d)",
			len(e.targets), opt.MaxQuantExpand+1)
		var feasible bool
		feasible, decided = e.checkFeasible()
		e.res.Feasible = feasible
		if (decided && !feasible) || e.cancelled() {
			return e.seal(ctx, start), nil
		}
	}
	if err := e.rectifyAll(false); err != nil {
		if errors.Is(err, errCancelled) {
			return e.seal(ctx, start), nil
		}
		return nil, e.wrapErr(ctx, err)
	}
	if e.cancelled() {
		// Patches exist but the deadline is gone: report them without
		// spending a verification stage on a result already stamped
		// TimedOut (verification could not be trusted to finish).
		e.finish()
		return e.seal(ctx, start), nil
	}
	ok, err := e.verify()
	if err != nil {
		return nil, e.wrapErr(ctx, err)
	}
	if !ok && e.usedMoveGuidance() && !e.cancelled() {
		// Move-guided quantification is an approximation of the full
		// certificate construction; redo with full expansion.
		e.logf("move-guided patch failed verification; retrying with full expansion")
		if err := e.rectifyAll(true); err != nil {
			if errors.Is(err, errCancelled) {
				return e.seal(ctx, start), nil
			}
			return nil, e.wrapErr(ctx, err)
		}
		ok, err = e.verify()
		if err != nil {
			return nil, e.wrapErr(ctx, err)
		}
	}
	e.res.Verified = ok
	switch {
	case decided: // the verdict is in
	case ok:
		e.logf("feasibility: certified by the verified patch")
		e.res.Feasible = true
	case e.cancelled(): // no verdict
	case upFront:
		return nil, errUndecided
	default:
		feasible, decided := e.checkFeasible()
		if !decided {
			if !e.cancelled() {
				return nil, errUndecided
			}
			break
		}
		e.res.Feasible = feasible
		e.logf("feasibility: checked after a failed verification: feasible=%v", feasible)
		if !feasible {
			return e.seal(ctx, start), nil
		}
	}
	e.finish()
	return e.seal(ctx, start), nil
}

// errUndecided reports a solve that reached no feasibility verdict
// without being cancelled: the 2QBF check gave up and the patch failed
// verification.
var errUndecided = errors.New("eco: feasibility undecided: the 2QBF check gave up and the patch failed verification")

// cancelled reports whether the run's context is done. Checked at
// stage boundaries: SAT calls are interrupted asynchronously by the
// solverGroup watcher, but structural fallbacks and synthesis are
// pure CPU and would otherwise run to completion on a dead job.
func (e *engine) cancelled() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

// seal stamps the bookkeeping fields shared by every return path.
func (e *engine) seal(ctx context.Context, start time.Time) *Result {
	e.res.TimedOut = ctx.Err() != nil
	e.stats.Solver = e.group.stats()
	e.res.Stats = e.stats
	e.res.Elapsed = time.Since(start)
	return e.res
}

// wrapErr annotates an engine error with the deadline expiry that most
// likely caused it, so callers see "context deadline exceeded" rather
// than a downstream symptom.
func (e *engine) wrapErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return fmt.Errorf("eco: aborted by %w: %v", ctx.Err(), err)
	}
	return err
}

// setup builds the working AIG: implementation (targets exposed as
// PIs), specification sharing the inputs, the windowed miter, and the
// candidate divisors.
func (e *engine) setup() error {
	implRes, err := netlist.ToAIG(e.inst.Impl)
	if err != nil {
		return err
	}
	specRes, err := netlist.ToAIG(e.inst.Spec)
	if err != nil {
		return err
	}
	e.targets = implRes.Targets
	k := len(e.targets)

	w := aig.New()
	e.w = w
	nIn := len(e.inst.Impl.Inputs)
	piMap := make([]aig.Lit, implRes.G.NumPIs())
	for i := 0; i < nIn; i++ {
		e.xPIs = append(e.xPIs, w.NumPIs())
		piMap[i] = w.AddPI(e.inst.Impl.Inputs[i])
	}
	for i := 0; i < k; i++ {
		e.tPIs = append(e.tPIs, w.NumPIs())
		piMap[nIn+i] = w.AddPI(e.targets[i])
	}

	// Transfer all named implementation signals (divisor candidates)
	// and the implementation outputs.
	names := make([]string, 0, len(implRes.Signals))
	for name := range implRes.Signals {
		names = append(names, name)
	}
	sort.Strings(names)
	roots := make([]aig.Lit, 0, len(names)+implRes.G.NumPOs())
	for _, n := range names {
		roots = append(roots, implRes.Signals[n])
	}
	for i := 0; i < implRes.G.NumPOs(); i++ {
		roots = append(roots, implRes.G.PO(i))
	}
	moved := aig.Transfer(w, implRes.G, piMap, roots)
	e.sigEdge = make(map[string]aig.Lit, len(names))
	for i, n := range names {
		e.sigEdge[n] = moved[i]
	}
	e.implPOs = moved[len(names):]

	// Specification shares the x PIs.
	specMap := make([]aig.Lit, specRes.G.NumPIs())
	for i := 0; i < nIn; i++ {
		specMap[i] = w.PI(e.xPIs[i])
	}
	specRoots := make([]aig.Lit, specRes.G.NumPOs())
	for i := range specRoots {
		specRoots[i] = specRes.G.PO(i)
	}
	e.specPOs = aig.Transfer(w, specRes.G, specMap, specRoots)

	e.patches = make([]aig.Lit, k)
	e.done = make([]bool, k)
	e.usedSignals = make(map[string]bool)

	e.buildWindowAndDivisors()
	e.patterns = sim.NewPatternBank(w.NumPIs(), simPatternPoolMax)
	return nil
}

// finish assembles the patch netlist and totals.
func (e *engine) finish() {
	e.res.Patches = e.res.Patches[:0]
	union := make(map[string]bool)
	// Patch module AIG: PIs are the union of supports.
	pg := aig.New()
	pin := make(map[string]aig.Lit)
	totalCost := 0

	for i, t := range e.targets {
		tp := e.targetPatches[i]
		for _, s := range tp.Support {
			if !union[s] {
				union[s] = true
				totalCost += e.inst.Weights.Cost(s)
				pin[s] = pg.AddPI(s)
			}
		}
		// Rebuild this patch inside pg over its support PIs.
		inputs := make([]aig.Lit, len(tp.Support))
		for j, s := range tp.Support {
			inputs[j] = pin[s]
		}
		root := aig.Transfer(pg, e.patchAIGs[i], inputs, []aig.Lit{e.patchAIGs[i].PO(0)})[0]
		pg.AddPO(t, root)
	}
	e.res.TotalCost = totalCost
	allPOs := make([]aig.Lit, pg.NumPOs())
	for i := range allPOs {
		allPOs[i] = pg.PO(i)
	}
	e.res.TotalGates = pg.ConeSize(allPOs)
	e.res.Patch = netlist.FromAIG(pg, "patch")
	e.res.Patches = append(e.res.Patches, e.targetPatches...)
}
