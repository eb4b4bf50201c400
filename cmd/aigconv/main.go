// Command aigconv converts combinational circuits between the formats
// this repository understands: the contest's structural-Verilog
// subset (.v), ASCII and binary AIGER (.aag/.aig), and BLIF (.blif).
// Formats are inferred from file extensions.
//
// Usage:
//
//	aigconv input.v output.aag
//	aigconv design.blif design.aig
//	aigconv circuit.aag circuit.v
//
// Optionally runs the light optimization pipeline the patch
// synthesizer uses (balance, refactor, cleanup — synth.Optimize) in
// between:
//
//	aigconv -opt input.v output.aig
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ecopatch/internal/aig"
	"ecopatch/internal/blif"
	"ecopatch/internal/netlist"
	"ecopatch/internal/synth"
)

func main() {
	opt := flag.Bool("opt", false, "run the balance+refactor+cleanup pipeline (synth.Optimize) before writing")
	stats := flag.Bool("stats", false, "print node counts")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: aigconv [-opt] [-stats] <in.{v,aag,aig,blif}> <out.{v,aag,aig,blif}>")
		os.Exit(2)
	}
	in, out := flag.Arg(0), flag.Arg(1)

	g, err := read(in)
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Printf("read    %s: %d PIs, %d POs, %d ANDs\n", in, g.NumPIs(), g.NumPOs(), g.NumAnds())
	}
	if *opt {
		g = synth.Optimize(g)
		if *stats {
			fmt.Printf("optimized: %d ANDs, depth %d\n", g.NumAnds(), maxLevel(g))
		}
	}
	if err := write(out, g); err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Printf("wrote   %s\n", out)
	}
}

func maxLevel(g *aig.AIG) int {
	m := 0
	for _, l := range g.Levels() {
		if l > m {
			m = l
		}
	}
	return m
}

func read(path string) (*aig.AIG, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch ext(path) {
	case ".v":
		n, err := netlist.Parse(f)
		if err != nil {
			return nil, err
		}
		res, err := netlist.ToAIG(n)
		if err != nil {
			return nil, err
		}
		if len(res.Targets) > 0 {
			fmt.Fprintf(os.Stderr, "aigconv: note: treating target points %v as inputs\n", res.Targets)
		}
		return res.G, nil
	case ".aag", ".aig":
		return aig.ReadAiger(f)
	case ".blif":
		return blif.Read(f)
	}
	return nil, fmt.Errorf("aigconv: unknown input format %q", ext(path))
}

func write(path string, g *aig.AIG) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	base := strings.TrimSuffix(filepath.Base(path), ext(path))
	switch ext(path) {
	case ".v":
		return netlist.Write(f, netlist.FromAIG(g, base))
	case ".aag":
		return aig.WriteASCIIAiger(f, g)
	case ".aig":
		return aig.WriteBinaryAiger(f, g)
	case ".blif":
		return blif.Write(f, g, base)
	}
	return fmt.Errorf("aigconv: unknown output format %q", ext(path))
}

func ext(path string) string { return strings.ToLower(filepath.Ext(path)) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aigconv:", err)
	os.Exit(1)
}
