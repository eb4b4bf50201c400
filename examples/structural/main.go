// The SAT-timeout path (§3.6): structural patch computation and the
// CEGAR_min max-flow improvement.
//
// ForceStructural takes the path the engine falls back to when a
// target's SAT work runs out: it skips the SAT route, takes the
// cofactor M(0,x) of the ECO miter as a patch in terms of primary
// inputs, and then — with CEGAR_min enabled — re-expresses it over a
// minimum-weight cut of internal signals found by max-flow/min-cut.
// The program exits nonzero if either patch fails verification.
//
// Run with: go run ./examples/structural
package main

import (
	"fmt"
	"log"

	"ecopatch"
)

func main() {
	gen := func() *ecopatch.Instance {
		inst, err := ecopatch.GenerateBench(ecopatch.BenchConfig{
			Name:    "timeout-demo",
			Seed:    777,
			Family:  ecopatch.FamRandom,
			Size:    260,
			Targets: 2,
			Profile: ecopatch.T1, // PIs expensive, internal signals cheap: cuts pay off
		})
		if err != nil {
			log.Fatal(err)
		}
		return inst
	}

	fmt.Println("── structural patch, PI support only (CEGAR_min off)")
	optPlain := ecopatch.DefaultOptions()
	optPlain.ForceStructural = true
	optPlain.CEGARMin = false
	plain, err := ecopatch.Solve(gen(), optPlain)
	if err != nil {
		log.Fatal(err)
	}
	report(plain)

	fmt.Println("── structural patch + CEGAR_min (max-flow min-cut support)")
	optCM := ecopatch.DefaultOptions()
	optCM.ForceStructural = true
	optCM.CEGARMin = true
	cm, err := ecopatch.Solve(gen(), optCM)
	if err != nil {
		log.Fatal(err)
	}
	report(cm)

	fmt.Printf("CEGAR_min cost improvement: %d -> %d (%.1f%%)\n",
		plain.TotalCost, cm.TotalCost,
		100*(1-float64(cm.TotalCost)/float64(plain.TotalCost)))
	if !plain.Verified || !cm.Verified {
		log.Fatal("a structural patch failed verification")
	}
}

func report(r *ecopatch.Result) {
	for _, p := range r.Patches {
		fmt.Printf("  %s: %d support signals, cost=%d, gates=%d\n",
			p.Target, len(p.Support), p.Cost, p.Gates)
	}
	fmt.Printf("  total cost=%d gates=%d verified=%v\n\n", r.TotalCost, r.TotalGates, r.Verified)
}
