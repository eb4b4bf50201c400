package bench

import (
	"fmt"
	"io"
	"math"

	"ecopatch/internal/cache"
)

// WarmRun is the outcome of a warm-vs-cold cache benchmark: the same
// sweep executed twice against one shared window store. The
// cold pass populates it; the warm pass reuses it. Speedup is the
// geomean of per-cell cold/warm wall-clock ratios.
type WarmRun struct {
	Cold    []Table1Row
	Warm    []Table1Row
	Speedup float64
}

// RunTable1Warm runs the sweep twice with one shared cache
// (experiment E12). Both passes use identical options, so any verdict
// or cost difference between them is a cache-correctness bug, not
// noise — callers should compare the passes cell by cell.
func RunTable1Warm(opts RunOptions, w io.Writer) (*WarmRun, error) {
	if opts.Cache == nil {
		entries := opts.CacheEntries
		if entries <= 0 {
			entries = 4096
		}
		opts.Cache = cache.NewStore(entries)
	}
	if w != nil {
		fmt.Fprintln(w, "== cold pass (empty cache) ==")
	}
	cold, err := RunTable1With(opts, w)
	if err != nil {
		return nil, err
	}
	if w != nil {
		fmt.Fprintln(w, "== warm pass (reusing cache) ==")
	}
	warm, err := RunTable1With(opts, w)
	if err != nil {
		return nil, err
	}
	run := &WarmRun{Cold: cold, Warm: warm, Speedup: warmSpeedup(cold, warm)}
	if w != nil {
		fmt.Fprintf(w, "warm-cache geomean speedup: %.2fx\n", run.Speedup)
	}
	return run, nil
}

// warmSpeedup is the geometric mean over all (unit, mode) cells of
// cold/warm seconds. Cells missing from either pass are skipped;
// wall clocks are clamped to a small epsilon so instant cells cannot
// blow the ratio up to infinity.
func warmSpeedup(cold, warm []Table1Row) float64 {
	const eps = 1e-4
	byUnit := make(map[string]Table1Row, len(warm))
	for _, r := range warm {
		byUnit[r.Unit] = r
	}
	sum, n := 0.0, 0
	for _, cr := range cold {
		wr, ok := byUnit[cr.Unit]
		if !ok {
			continue
		}
		for mode, ca := range cr.Results {
			wa, ok := wr.Results[mode]
			if !ok {
				continue
			}
			cs, ws := ca.Seconds, wa.Seconds
			if cs < eps {
				cs = eps
			}
			if ws < eps {
				ws = eps
			}
			sum += math.Log(cs / ws)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return math.Exp(sum / float64(n))
}

// NewWarmJSONReport emits the warm pass as a table1@v1 report,
// annotating every warm cell with its cold counterpart's wall clock
// (cold_seconds) and the run-level geomean speedup — all additive
// fields, so cache-unaware tooling reads the file as a plain sweep.
func NewWarmJSONReport(opts RunOptions, modes []string, run *WarmRun) JSONReport {
	rep := NewJSONReport(opts, modes, run.Warm)
	rep.Experiment = "table1-warm-cache"
	rep.WarmSpeedup = run.Speedup
	coldByUnit := make(map[string]Table1Row, len(run.Cold))
	for _, r := range run.Cold {
		coldByUnit[r.Unit] = r
	}
	for i := range rep.Rows {
		cr, ok := coldByUnit[rep.Rows[i].Unit]
		if !ok {
			continue
		}
		for mode, cell := range rep.Rows[i].Results {
			if ca, ok := cr.Results[mode]; ok {
				cell.ColdSeconds = ca.Seconds
				rep.Rows[i].Results[mode] = cell
			}
		}
	}
	return rep
}
