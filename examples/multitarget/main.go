// Multi-target rectification: an ALU whose specification changed in
// two places at once.
//
// The example generates a synthetic ALU-based ECO unit with two
// target points and walks the Theorem-1 iteration of the paper: the
// engine rectifies one target at a time, universally quantifying the
// not-yet-patched target and substituting finished patches back into
// the miter. The per-target log shows the order and the chosen
// supports.
//
// Run with: go run ./examples/multitarget
package main

import (
	"fmt"
	"log"
	"os"

	"ecopatch"
)

func main() {
	inst, err := ecopatch.GenerateBench(ecopatch.BenchConfig{
		Name:    "alu-eco",
		Seed:    4242,
		Family:  ecopatch.FamALU,
		Size:    6,
		Targets: 2,
		Profile: ecopatch.T5, // distance-aware composed with path-aware costs
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %d PIs, %d POs, %d gates (impl), %d gates (spec), targets %v\n",
		len(inst.Impl.Inputs), len(inst.Impl.Outputs),
		inst.Impl.NumGates(), inst.Spec.NumGates(), inst.Impl.Targets())

	opt := ecopatch.DefaultOptions()
	opt.Log = os.Stdout // watch the Theorem-1 iteration
	res, err := ecopatch.Solve(inst, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	for i, p := range res.Patches {
		fmt.Printf("step %d — target %s:\n", i+1, p.Target)
		fmt.Printf("  support (%d signals): %v\n", len(p.Support), p.Support)
		fmt.Printf("  cost %d, %d AND gates, %d prime cubes\n", p.Cost, p.Gates, p.Cubes)
	}
	fmt.Printf("\ntotal: cost=%d gates=%d verified=%v in %v\n",
		res.TotalCost, res.TotalGates, res.Verified, res.Elapsed.Round(1e6))
	fmt.Printf("miter cofactor copies used for quantification: %d\n",
		res.Stats.MiterCopies)
	// With two targets the 2QBF countermoves have nothing to guide,
	// so the check does not run: the verified patch certifies
	// feasibility.
	fmt.Printf("feasible: %v (2QBF expansion copies: %d)\n",
		res.Feasible, res.Stats.QBFCopies)
}
