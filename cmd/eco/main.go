// Command eco computes ECO patch functions for one instance: it reads
// the old implementation F.v (with free t_* target points), the new
// specification S.v and the signal weight file, runs the engine of
// "Efficient Computation of ECO Patch Functions" (DAC 2018), verifies
// the result and writes the patch module.
//
// Usage:
//
//	eco -dir unit7 [-o patch.v] [-support minimize|final|exact]
//	    [-patch cubes|interp] [-structural] [-no-window] [-v]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ecopatch"
	"ecopatch/internal/aig"
	"ecopatch/internal/blif"
	"ecopatch/internal/eco"
	"ecopatch/internal/netlist"
)

// jsonReport is the machine-readable result of a run (-json flag).
type jsonReport struct {
	Instance   string                 `json:"instance"`
	Feasible   bool                   `json:"feasible"`
	Verified   bool                   `json:"verified"`
	TotalCost  int                    `json:"total_cost"`
	TotalGates int                    `json:"total_gates"`
	ElapsedSec float64                `json:"elapsed_sec"`
	TimedOut   bool                   `json:"timed_out,omitempty"`
	Targets    []ecopatch.TargetPatch `json:"targets"`
	PatchFile  string                 `json:"patch_file,omitempty"`
	Patch      string                 `json:"patch,omitempty"`
}

func main() {
	var (
		dir        = flag.String("dir", "", "instance directory containing F.v, S.v, weight.txt")
		out        = flag.String("o", "patch.v", "output patch file ('-' for stdout; .v/.blif/.aag/.aig by extension)")
		support    = flag.String("support", "minimize", "support algorithm: final, minimize, exact")
		patchAlgo  = flag.String("patch", "cubes", "patch computation: cubes, interp")
		structural = flag.Bool("structural", false, "force the structural (§3.6) path")
		noWindow   = flag.Bool("no-window", false, "disable structural pruning (§3.3)")
		noCegar    = flag.Bool("no-cegarmin", false, "disable CEGAR_min for structural patches")
		budget     = flag.Int64("budget", 0, "SAT conflict budget per call (0 = unlimited)")
		timeout    = flag.Duration("timeout", 0, "wall-clock deadline; on expiry before every target is patched the result carries no patch, after that it is unverified (0 = none)")
		verbose    = flag.Bool("v", false, "log engine progress to stderr")
		jsonOut    = flag.Bool("json", false, "emit a JSON report on stdout instead of text")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	inst, err := ecopatch.LoadDir(*dir)
	if err != nil {
		fatal(err)
	}
	opt := ecopatch.DefaultOptions()
	if opt.Support, err = eco.ParseSupportAlgo(*support); err != nil {
		fatal(err)
	}
	if opt.Patch, err = eco.ParsePatchMethod(*patchAlgo); err != nil {
		fatal(err)
	}
	opt.ForceStructural = *structural
	opt.Window = !*noWindow
	opt.CEGARMin = !*noCegar
	opt.ConfBudget = *budget
	opt.Timeout = *timeout
	if *verbose {
		opt.Log = os.Stderr
	}

	res, err := ecopatch.Solve(inst, opt)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		emitJSON(inst, res, *out)
		if !res.Feasible || !res.Verified {
			os.Exit(1)
		}
		return
	}
	// A run cut short before the feasibility check has no verdict.
	if !res.Feasible && !res.TimedOut {
		fmt.Println("INFEASIBLE: the target set cannot rectify the implementation")
		os.Exit(1)
	}
	fmt.Printf("instance  %s: %d inputs, %d outputs, %d targets\n",
		inst.Name, len(inst.Impl.Inputs), len(inst.Impl.Outputs), len(inst.Impl.Targets()))
	for _, p := range res.Patches {
		kind := "sat"
		if p.Structural {
			kind = "structural"
		}
		fmt.Printf("target    %-6s support=%v cost=%d gates=%d (%s)\n",
			p.Target, p.Support, p.Cost, p.Gates, kind)
	}
	fmt.Printf("total     cost=%d gates=%d verified=%v time=%v\n",
		res.TotalCost, res.TotalGates, res.Verified, res.Elapsed.Round(1e6))
	if res.TimedOut {
		if missing := unpatchedTargets(inst, res); len(missing) > 0 {
			fmt.Printf("WARNING: deadline expired; no patch for %s\n", strings.Join(missing, ", "))
		} else {
			fmt.Println("WARNING: deadline expired after every target was patched")
		}
	}
	if !res.Verified {
		if res.TimedOut {
			fmt.Println("WARNING: result unverified because the deadline expired")
		} else {
			fmt.Println("WARNING: patch failed verification")
		}
		os.Exit(1)
	}

	if *out == "-" {
		if err := ecopatch.WriteNetlist(os.Stdout, res.Patch); err != nil {
			fatal(err)
		}
		return
	}
	if err := writePatch(*out, res.Patch); err != nil {
		fatal(err)
	}
	fmt.Printf("patch     written to %s\n", *out)
}

// writePatch writes the patch module in the format implied by the
// file extension (.v default; .blif/.aag/.aig via the interop
// packages).
func writePatch(path string, patch *ecopatch.Netlist) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".blif", ".aag", ".aig":
		res, err := netlist.ToAIG(patch)
		if err != nil {
			return err
		}
		switch strings.ToLower(filepath.Ext(path)) {
		case ".blif":
			return blif.Write(f, res.G, "patch")
		case ".aag":
			return aig.WriteASCIIAiger(f, res.G)
		default:
			return aig.WriteBinaryAiger(f, res.G)
		}
	default:
		return ecopatch.WriteNetlist(f, patch)
	}
}

// unpatchedTargets lists, in netlist order, the targets res carries no
// patch for.
func unpatchedTargets(inst *ecopatch.Instance, res *ecopatch.Result) []string {
	patched := make(map[string]bool, len(res.Patches))
	for _, p := range res.Patches {
		patched[p.Target] = true
	}
	var missing []string
	for _, t := range inst.Impl.Targets() {
		if !patched[t] {
			missing = append(missing, t)
		}
	}
	return missing
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eco:", err)
	os.Exit(1)
}

// emitJSON writes the machine-readable report and, unless out is "-",
// also writes the patch file.
func emitJSON(inst *ecopatch.Instance, res *ecopatch.Result, out string) {
	rep := jsonReport{
		Instance:   inst.Name,
		Feasible:   res.Feasible,
		Verified:   res.Verified,
		TotalCost:  res.TotalCost,
		TotalGates: res.TotalGates,
		ElapsedSec: res.Elapsed.Seconds(),
		TimedOut:   res.TimedOut,
		Targets:    res.Patches,
	}
	if rep.Targets == nil {
		rep.Targets = []ecopatch.TargetPatch{} // [] rather than null
	}
	if res.Patch != nil {
		var sb strings.Builder
		if err := ecopatch.WriteNetlist(&sb, res.Patch); err == nil {
			rep.Patch = sb.String()
		}
		if out != "-" && res.Verified {
			if f, err := os.Create(out); err == nil {
				_ = ecopatch.WriteNetlist(f, res.Patch)
				f.Close()
				rep.PatchFile = out
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
}
