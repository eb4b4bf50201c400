// Package ecopatch computes Engineering Change Order (ECO) patch
// functions for combinational netlists, reproducing the SAT-based
// engine of "Efficient Computation of ECO Patch Functions" (DAC 2018).
//
// Given an old implementation whose target points t_0, t_1, ... are
// free inputs, a new specification with the same interface, and a
// per-signal resource cost, Solve computes patch functions over a
// minimized-cost support of existing signals such that the patched
// implementation is combinationally equivalent to the specification:
//
//	inst, err := ecopatch.LoadDir("unit7")        // F.v, S.v, weight.txt
//	res, err := ecopatch.Solve(inst, ecopatch.DefaultOptions())
//	fmt.Println(res.TotalCost, res.Verified)
//	ecopatch.WriteNetlist(os.Stdout, res.Patch)   // module patch(...)
//
// Three support-minimization algorithms are provided (§3.4 of the
// paper): the analyze_final baseline, minimize_assumptions
// (Algorithm 1, the 2017 ICCAD CAD Contest winner configuration), and
// the exact minimum-cost SAT_prune. Patch functions are computed by
// prime-cube enumeration (§3.5) or Craig interpolation (the
// prior-work baseline), with a structural cofactor fallback plus
// max-flow CEGAR_min support reduction when a target's SAT work
// allotment runs out (§3.6). See DESIGN.md for the full system inventory.
package ecopatch

import (
	"context"
	"io"

	"ecopatch/internal/bench"
	"ecopatch/internal/eco"
	"ecopatch/internal/netlist"
	"ecopatch/internal/seq"
)

// Core types, re-exported from the engine.
type (
	// Instance is one ECO problem: implementation, specification and
	// signal weights.
	Instance = eco.Instance
	// Options configures the engine; start from DefaultOptions.
	Options = eco.Options
	// Result is the outcome of Solve.
	Result = eco.Result
	// TargetPatch describes the patch computed for one target.
	TargetPatch = eco.TargetPatch
	// Stats carries engine counters.
	Stats = eco.Stats
	// SupportAlgo selects the support-minimization algorithm.
	SupportAlgo = eco.SupportAlgo
	// PatchMethod selects cube enumeration or interpolation.
	PatchMethod = eco.PatchMethod

	// Netlist is a gate-level structural-Verilog module.
	Netlist = netlist.Netlist
	// Weights maps signal names to resource costs.
	Weights = netlist.Weights

	// BenchConfig describes a synthetic benchmark unit.
	BenchConfig = bench.Config
	// BenchFamily selects a base circuit generator.
	BenchFamily = bench.Family
	// WeightProfile is one of the contest's weight distributions T1–T8.
	WeightProfile = bench.WeightProfile
)

// Benchmark base-circuit families.
const (
	FamAdder      = bench.FamAdder
	FamALU        = bench.FamALU
	FamComparator = bench.FamComparator
	FamParity     = bench.FamParity
	FamRandom     = bench.FamRandom
	FamC17        = bench.FamC17
	FamMultiplier = bench.FamMultiplier
	FamShifter    = bench.FamShifter
	FamDecoder    = bench.FamDecoder
)

// Contest weight profiles (§4.1 of the paper).
const (
	T1 = bench.T1
	T2 = bench.T2
	T3 = bench.T3
	T4 = bench.T4
	T5 = bench.T5
	T6 = bench.T6
	T7 = bench.T7
	T8 = bench.T8
)

// Support-minimization algorithms (§3.4).
const (
	// SupportAnalyzeFinal uses the raw solver core (baseline).
	SupportAnalyzeFinal = eco.SupportAnalyzeFinal
	// SupportMinimize runs minimize_assumptions (Algorithm 1).
	SupportMinimize = eco.SupportMinimize
	// SupportExact runs the exact minimum-cost SAT_prune.
	SupportExact = eco.SupportExact
)

// Patch-function computation methods (§3.5 and prior work).
const (
	// PatchCubeEnum enumerates prime cubes with the SAT solver.
	PatchCubeEnum = eco.PatchCubeEnum
	// PatchInterpolation derives the patch as a Craig interpolant.
	PatchInterpolation = eco.PatchInterpolation
)

// DefaultOptions returns the paper's best-flow configuration.
func DefaultOptions() Options { return eco.DefaultOptions() }

// Solve runs the full ECO flow: feasibility check, structural
// pruning, per-target support minimization and patch computation,
// and final verification.
func Solve(inst *Instance, opt Options) (*Result, error) {
	return eco.Solve(inst, opt)
}

// SolveContext is Solve under a context: when the context's deadline
// fires (or it is cancelled), every active SAT solver is interrupted
// and the engine degrades to its structural fallback, returning the
// partial result with Result.TimedOut set. Options.Timeout arms the
// same machinery without a caller-supplied context.
func SolveContext(ctx context.Context, inst *Instance, opt Options) (*Result, error) {
	return eco.SolveContext(ctx, inst, opt)
}

// LoadDir reads an instance from a directory holding F.v, S.v and
// weight.txt (the ICCAD-2017 contest layout).
func LoadDir(dir string) (*Instance, error) { return eco.LoadDir(dir) }

// VerifyPatch splices a patch module into the implementation and
// checks combinational equivalence against the specification.
func VerifyPatch(inst *Instance, patch *Netlist) (bool, error) {
	return eco.VerifyPatch(inst, patch)
}

// ParseNetlist reads one module in the contest's structural-Verilog
// subset.
func ParseNetlist(r io.Reader) (*Netlist, error) { return netlist.Parse(r) }

// ParseNetlistString parses a module held in a string.
func ParseNetlistString(src string) (*Netlist, error) {
	return netlist.ParseString(src)
}

// WriteNetlist emits a module in the contest's structural-Verilog
// subset.
func WriteNetlist(w io.Writer, n *Netlist) error { return netlist.Write(w, n) }

// NewWeights returns an empty weight table (unlisted signals cost 1).
func NewWeights() *Weights { return netlist.NewWeights() }

// ParseWeights reads "<signal> <cost>" lines.
func ParseWeights(r io.Reader) (*Weights, error) { return netlist.ParseWeights(r) }

// GenerateBench builds a feasible-by-construction synthetic ECO
// instance (see internal/bench for the construction and the weight
// profiles T1–T8).
func GenerateBench(cfg BenchConfig) (*Instance, error) { return bench.Generate(cfg) }

// BenchSuite returns the 20-unit replica of the contest benchmark
// suite at the given size scale.
func BenchSuite(scale int) []BenchConfig { return bench.Suite(scale) }

// SolveSequential runs the sequential ECO flow on netlists containing
// dff gates: both designs are reduced to their transition netlists
// (latch outputs as pseudo inputs, latch inputs as pseudo outputs —
// the state-blind reduction the paper's sequential follow-up [10]
// generalizes), the combinational engine computes the patches, and
// the patched sequential design is re-validated by bounded
// equivalence over verifyFrames time frames from the all-zero state.
func SolveSequential(inst *Instance, opt Options, verifyFrames int) (*Result, error) {
	return seq.Solve(inst, opt, verifyFrames)
}

// SolveSequentialContext is SolveSequential under a context (see
// SolveContext for the deadline semantics).
func SolveSequentialContext(ctx context.Context, inst *Instance, opt Options, verifyFrames int) (*Result, error) {
	return seq.SolveContext(ctx, inst, opt, verifyFrames)
}

// IsSequential reports whether a netlist contains dff gates.
func IsSequential(n *Netlist) bool { return seq.IsSequential(n) }
