// Command ecobench regenerates the paper's evaluation on the
// synthetic contest-suite replica.
//
// Modes:
//
//	table1   (default) — the three algorithm columns of Table 1 over
//	         all 20 units, plus the geomean-ratio summary row;
//	copies   — experiment E6: ECO-miter copies needed for multi-target
//	         structural patches, full 2^k expansion vs the QBF
//	         move-guided construction of §3.6.2;
//	mincalls — experiment E5: SAT calls spent by minimize_assumptions
//	         (bisection) vs the naive linear loop, over a divisor sweep;
//	patchcmp — experiment E7: cube enumeration vs interpolation patch
//	         sizes over the suite.
//
// Usage:
//
//	ecobench [-mode table1|copies|mincalls|patchcmp] [-scale N]
//	         [-unit unitK] [-units unitK,unitL,...]
//	         [-modes baseline,minassume,exact]
//	         [-j N] [-timeout 30s] [-cache N] [-warm]
//	         [-json report.json]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ecopatch/internal/atomicio"
	"ecopatch/internal/bench"
)

func main() {
	// realMain holds the body so deferred profile writers run before
	// the process exits, even on error paths.
	os.Exit(realMain())
}

func realMain() int {
	var (
		mode       = flag.String("mode", "table1", "experiment: table1, copies, mincalls, patchcmp, all")
		scale      = flag.Int("scale", 1, "circuit size multiplier")
		unit       = flag.String("unit", "", "restrict table1 to one unit")
		units      = flag.String("units", "", "restrict table1 to a comma-separated list of units (e.g. unit3,unit7)")
		modesStr   = flag.String("modes", strings.Join(bench.Modes, ","), "table1 algorithm columns")
		jobs       = flag.Int("j", 1, "worker goroutines for the table1 sweep")
		timeout    = flag.Duration("timeout", 0, "per-(unit,mode) deadline for table1 cells (0 = none)")
		cacheEnt   = flag.Int("cache", 0, "attach a shared window store of N entries to the table1 sweep (0 = off)")
		warm       = flag.Bool("warm", false, "run table1 twice against one cache (cold then warm) and report the speedup")
		jsonPath   = flag.String("json", "", "also write the table1 report as JSON to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile (go tool pprof) to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecobench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ecobench:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecobench:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date allocation stats
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ecobench:", err)
		}
	}()

	modes, err := parseModes(*modesStr)
	if err == nil {
		switch *mode {
		case "all":
			for _, m := range []struct {
				title string
				run   func() error
			}{
				{"Table 1", func() error {
					return runTable1(*scale, parseUnits(*unit, *units), modes, *jobs, *timeout, *cacheEnt, *warm, *jsonPath)
				}},
				{"E5: minimize_assumptions SAT calls (§3.4.1)", func() error { return bench.RunMinCalls(os.Stdout) }},
				{"E6: miter copies for structural multi-target (§3.6.2)", func() error { return bench.RunCopies(*scale, os.Stdout) }},
				{"E7: cube enumeration vs interpolation (§3.5)", func() error { return bench.RunPatchCompare(*scale, os.Stdout) }},
			} {
				fmt.Printf("==== %s ====\n", m.title)
				if err = m.run(); err != nil {
					break
				}
				fmt.Println()
			}
		case "table1":
			err = runTable1(*scale, parseUnits(*unit, *units), modes, *jobs, *timeout, *cacheEnt, *warm, *jsonPath)
		case "copies":
			err = bench.RunCopies(*scale, os.Stdout)
		case "mincalls":
			err = bench.RunMinCalls(os.Stdout)
		case "patchcmp":
			err = bench.RunPatchCompare(*scale, os.Stdout)
		default:
			err = fmt.Errorf("unknown -mode %q", *mode)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecobench:", err)
		return 1
	}
	return 0
}

// parseModes splits the -modes flag, trimming whitespace, dropping
// empty entries (so trailing commas are harmless), and rejecting any
// name that is not a known Table-1 column.
func parseModes(s string) ([]string, error) {
	known := make(map[string]bool, len(bench.Modes))
	for _, m := range bench.Modes {
		known[m] = true
	}
	var modes []string
	for _, part := range strings.Split(s, ",") {
		m := strings.TrimSpace(part)
		if m == "" {
			continue
		}
		if !known[m] {
			return nil, fmt.Errorf("unknown mode %q in -modes (valid: %s)",
				m, strings.Join(bench.Modes, ", "))
		}
		modes = append(modes, m)
	}
	if len(modes) == 0 {
		return nil, fmt.Errorf("-modes selects no columns (valid: %s)",
			strings.Join(bench.Modes, ", "))
	}
	return modes, nil
}

// parseUnits merges the -unit and -units selections into one list,
// splitting -units on commas and dropping empty entries. Unknown unit
// names are rejected later by the sweep (ConfigByName).
func parseUnits(unit, units string) []string {
	var out []string
	if unit != "" {
		out = append(out, unit)
	}
	for _, part := range strings.Split(units, ",") {
		if u := strings.TrimSpace(part); u != "" {
			out = append(out, u)
		}
	}
	return out
}

func runTable1(scale int, units []string, modes []string, jobs int, timeout time.Duration, cacheEnt int, warm bool, jsonPath string) error {
	opts := bench.RunOptions{
		Scale: scale, Modes: modes, Jobs: jobs, Timeout: timeout, CacheEntries: cacheEnt,
	}
	opts.Units = units
	var rep bench.JSONReport
	if warm {
		run, err := bench.RunTable1Warm(opts, os.Stdout)
		if err != nil {
			return err
		}
		rep = bench.NewWarmJSONReport(opts, modes, run)
	} else {
		rows, err := bench.RunTable1With(opts, os.Stdout)
		if err != nil {
			return err
		}
		rep = bench.NewJSONReport(opts, modes, rows)
	}
	if jsonPath == "" {
		return nil
	}
	// Atomic write: an interrupted run must never leave a truncated
	// report where trend tooling would read it.
	return atomicio.WriteFile(jsonPath, func(w io.Writer) error {
		return bench.WriteJSON(w, rep)
	})
}
