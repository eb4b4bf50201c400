// Package eco implements the paper's contribution: efficient,
// resource-aware computation of multi-output ECO patch functions.
//
// The flow follows Figure 2 of the paper:
//
//  1. verify that the target set is sufficient (§3.2, expression (1)),
//     via combinational-equivalence SAT or the 2QBF CEGAR solver —
//     first only when its countermoves guide quantification (more than
//     MaxQuantExpand+1 targets), otherwise only if step 7 fails, since
//     a verified patch already proves the target set sufficient;
//  2. structural pruning computes a logic window and the candidate
//     divisors with their costs (§3.3);
//  3. targets are rectified one at a time (Theorem 1, §3.1): the
//     remaining targets are universally quantified, previously
//     computed patches are substituted back;
//  4. per target, the patch support is minimized — analyze_final
//     (baseline), minimize_assumptions (Algorithm 1), or SAT-prune
//     exact minimum (§3.4) — over the two-copy extended miter of
//     expression (2);
//  5. the patch function is computed by SAT cube enumeration and
//     factored into a circuit (§3.5), or by Craig interpolation
//     (the prior-work baseline);
//  6. when SAT effort is exhausted, a structural patch in terms of
//     primary inputs is derived by cofactoring and improved with the
//     max-flow/min-cut CEGAR_min step (§3.6);
//  7. the patched implementation is verified against the
//     specification.
package eco

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ecopatch/internal/netlist"
)

// Instance is one ECO problem: an old implementation F with free
// target points t_*, a new specification S with the same PIs/POs, and
// a cost for every signal of F.
type Instance struct {
	Name    string
	Impl    *netlist.Netlist
	Spec    *netlist.Netlist
	Weights *netlist.Weights
}

// LoadDir reads an instance from a directory holding F.v, S.v and
// weight.txt (the contest layout).
func LoadDir(dir string) (*Instance, error) {
	impl, err := parseFile(filepath.Join(dir, "F.v"))
	if err != nil {
		return nil, err
	}
	spec, err := parseFile(filepath.Join(dir, "S.v"))
	if err != nil {
		return nil, err
	}
	wf, err := os.Open(filepath.Join(dir, "weight.txt"))
	if err != nil {
		return nil, fmt.Errorf("eco: %w", err)
	}
	defer wf.Close()
	weights, err := netlist.ParseWeights(wf)
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		Name:    filepath.Base(dir),
		Impl:    impl,
		Spec:    spec,
		Weights: weights,
	}
	return inst, inst.Check()
}

func parseFile(path string) (*netlist.Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("eco: %w", err)
	}
	defer f.Close()
	return netlist.Parse(f)
}

// SaveDir writes the instance in the contest layout.
func (inst *Instance) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("eco: %w", err)
	}
	if err := writeFile(filepath.Join(dir, "F.v"), func(w io.Writer) error {
		return netlist.Write(w, inst.Impl)
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "S.v"), func(w io.Writer) error {
		return netlist.Write(w, inst.Spec)
	}); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, "weight.txt"), func(w io.Writer) error {
		return netlist.WriteWeights(w, inst.Weights)
	})
}

func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("eco: %w", err)
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Check validates the instance shape: matching PIs/POs and at least
// one target.
func (inst *Instance) Check() error {
	if err := inst.Impl.Validate(); err != nil {
		return err
	}
	if err := inst.Spec.Validate(); err != nil {
		return err
	}
	if len(inst.Impl.Inputs) != len(inst.Spec.Inputs) {
		return fmt.Errorf("eco: input count mismatch: impl %d, spec %d",
			len(inst.Impl.Inputs), len(inst.Spec.Inputs))
	}
	if len(inst.Impl.Outputs) != len(inst.Spec.Outputs) {
		return fmt.Errorf("eco: output count mismatch: impl %d, spec %d",
			len(inst.Impl.Outputs), len(inst.Spec.Outputs))
	}
	for i := range inst.Impl.Inputs {
		if inst.Impl.Inputs[i] != inst.Spec.Inputs[i] {
			return fmt.Errorf("eco: input %d name mismatch: %q vs %q",
				i, inst.Impl.Inputs[i], inst.Spec.Inputs[i])
		}
	}
	for i := range inst.Impl.Outputs {
		if inst.Impl.Outputs[i] != inst.Spec.Outputs[i] {
			return fmt.Errorf("eco: output %d name mismatch: %q vs %q",
				i, inst.Impl.Outputs[i], inst.Spec.Outputs[i])
		}
	}
	if len(inst.Impl.Targets()) == 0 {
		return fmt.Errorf("eco: implementation has no t_* target points")
	}
	if specTargets := inst.Spec.Targets(); len(specTargets) != 0 {
		return fmt.Errorf("eco: specification must not contain target points, found %v", specTargets)
	}
	return nil
}
