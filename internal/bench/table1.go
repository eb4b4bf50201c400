package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"ecopatch/internal/eco"
)

// Mode names of the three Table-1 algorithm columns.
const (
	ModeBaseline  = "baseline"  // w/o minimize_assumptions (analyze_final)
	ModeMinAssume = "minassume" // w/ minimize_assumptions (contest 1st place)
	ModeExact     = "exact"     // SAT_prune + CEGAR_min
)

// Modes lists the three Table-1 configurations in column order.
var Modes = []string{ModeBaseline, ModeMinAssume, ModeExact}

// Table1Row aggregates one benchmark unit across the three modes.
// Results holds each mode's cell in its table1@v1 JSON form, built by
// CellFromResult.
type Table1Row struct {
	Unit    string
	PIs     int
	POs     int
	GatesF  int
	GatesS  int
	Targets int
	Results map[string]JSONCell
}

// Table1Options maps a mode name to engine options. structural marks
// units that emulate the paper's SAT-timeout rows (unit6, unit10,
// unit11, unit19): they take the §3.6 structural path, with CEGAR_min
// enabled only in the exact mode — reproducing the pattern that the
// first two columns coincide on those rows while SAT_prune+CEGAR_min
// improves them.
func Table1Options(mode string, structural bool) (eco.Options, error) {
	opt := eco.DefaultOptions()
	if structural {
		opt.ForceStructural = true
		opt.CEGARMin = mode == ModeExact
		return opt, nil
	}
	switch mode {
	case ModeBaseline:
		opt.Support = eco.SupportAnalyzeFinal
		opt.LastGasp = false
		opt.CEGARMin = false
	case ModeMinAssume:
		opt.Support = eco.SupportMinimize
	case ModeExact:
		opt.Support = eco.SupportExact
	default:
		return opt, fmt.Errorf("bench: unknown mode %q", mode)
	}
	return opt, nil
}

// RunUnit generates a unit and solves it in one mode.
func RunUnit(cfg Config, mode string) (Table1Row, error) {
	return RunUnitWith(cfg, mode, RunOptions{})
}

// RunUnitWith runs one (unit, mode) cell under the sweep options,
// honoring Timeout. A fired deadline is not an error: the engine's
// partial result is recorded with TimedOut set.
func RunUnitWith(cfg Config, mode string, opts RunOptions) (Table1Row, error) {
	inst, err := Generate(cfg)
	if err != nil {
		return Table1Row{}, err
	}
	row := Table1Row{
		Unit:    cfg.Name,
		PIs:     len(inst.Impl.Inputs),
		POs:     len(inst.Impl.Outputs),
		GatesF:  inst.Impl.NumGates(),
		GatesS:  inst.Spec.NumGates(),
		Targets: cfg.Targets,
		Results: make(map[string]JSONCell),
	}
	opt, err := Table1Options(mode, StructuralUnits[cfg.Name])
	if err != nil {
		return row, err
	}
	opt.Timeout = opts.Timeout
	res, err := eco.Solve(inst, opt)
	if err != nil {
		return row, fmt.Errorf("%s/%s: %w", cfg.Name, mode, err)
	}
	row.Results[mode] = CellFromResult(res)
	return row, nil
}

// RunOptions parameterizes a Table-1 sweep.
type RunOptions struct {
	Scale   int
	Modes   []string      // column order; defaults to Modes
	Jobs    int           // worker goroutines; <=1 means sequential
	Timeout time.Duration // per-(unit,mode) cell deadline; 0 = none
	Units   []string      // restrict to these unit names; nil = all
}

// RunTable1 reproduces Table 1: every unit in every requested mode.
// Rows are returned in unit order; when w is non-nil the paper-style
// table plus the geomean-ratio summary row is printed to it.
func RunTable1(scale int, modes []string, w io.Writer) ([]Table1Row, error) {
	return RunTable1With(RunOptions{Scale: scale, Modes: modes}, w)
}

// RunTable1With runs the sweep described by opts, fanning the
// (unit, mode) cells out over opts.Jobs worker goroutines. Each cell
// is independent (instances are regenerated per cell and all engine
// randomness is instance-local), so the row content is identical for
// any job count; rows are always assembled and returned in suite
// order.
func RunTable1With(opts RunOptions, w io.Writer) ([]Table1Row, error) {
	modes := opts.Modes
	if len(modes) == 0 {
		modes = Modes
	}
	units := Suite(opts.Scale)
	if len(opts.Units) > 0 {
		keep := make(map[string]bool, len(opts.Units))
		for _, name := range opts.Units {
			if _, err := ConfigByName(opts.Scale, name); err != nil {
				return nil, err
			}
			keep[name] = true
		}
		filtered := units[:0]
		for _, cfg := range units {
			if keep[cfg.Name] {
				filtered = append(filtered, cfg)
			}
		}
		units = filtered
	}

	// One task per (unit, mode) cell; results land in a slice indexed
	// by cell id so assembly order is independent of completion order.
	type cellOut struct {
		row Table1Row
		err error
	}
	nCells := len(units) * len(modes)
	cells := make([]cellOut, nCells)
	jobs := opts.Jobs
	if jobs < 1 {
		jobs = 1
	}
	if jobs > nCells && nCells > 0 {
		jobs = nCells
	}
	ids := make(chan int, nCells)
	for id := 0; id < nCells; id++ {
		ids <- id
	}
	close(ids)
	var wg sync.WaitGroup
	for wk := 0; wk < jobs; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				cfg, mode := units[id/len(modes)], modes[id%len(modes)]
				row, err := RunUnitWith(cfg, mode, opts)
				cells[id] = cellOut{row: row, err: err}
			}
		}()
	}
	wg.Wait()

	rows := make([]Table1Row, 0, len(units))
	for ui := range units {
		row := Table1Row{Results: make(map[string]JSONCell)}
		for mi, mode := range modes {
			c := cells[ui*len(modes)+mi]
			if c.err != nil {
				return rows, c.err
			}
			if row.Unit == "" {
				row = c.row
			} else {
				row.Results[mode] = c.row.Results[mode]
			}
		}
		rows = append(rows, row)
	}
	if w != nil {
		PrintTable1(w, rows, modes)
	}
	return rows, nil
}

// PrintTable1 renders rows in the layout of the paper's Table 1.
func PrintTable1(w io.Writer, rows []Table1Row, modes []string) {
	fmt.Fprintf(w, "%-8s %5s %5s %7s %7s %7s", "name", "#PI", "#PO", "#gateF", "#gateS", "#target")
	for _, m := range modes {
		fmt.Fprintf(w, " | %9s %7s %8s", m+":cost", "#gate", "time(s)")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %5d %5d %7d %7d %7d", r.Unit, r.PIs, r.POs, r.GatesF, r.GatesS, r.Targets)
		for _, m := range modes {
			a := r.Results[m]
			mark := ""
			if !a.Verified {
				mark = "!"
			}
			fmt.Fprintf(w, " | %9d %7d %7.2f%s", a.Cost, a.PatchGates, a.Seconds, mark)
		}
		fmt.Fprintln(w)
	}
	// Geomean ratios versus the first mode (the paper normalizes to
	// the w/o-minimize_assumptions column).
	if len(modes) < 2 {
		return
	}
	base := modes[0]
	fmt.Fprintf(w, "%-42s", "geomean ratio vs "+base)
	for _, m := range modes {
		cr := geomeanRatio(rows, base, m, func(a JSONCell) float64 { return float64(a.Cost) })
		gr := geomeanRatio(rows, base, m, func(a JSONCell) float64 { return float64(a.PatchGates) })
		tr := geomeanRatio(rows, base, m, func(a JSONCell) float64 { return a.Seconds })
		fmt.Fprintf(w, " | %9.2f %7.2f %7.2fx", cr, gr, tr)
	}
	fmt.Fprintln(w)
}

// geomeanRatio computes the geometric mean over rows of
// metric(mode)/metric(base). Rows where the base metric is zero are
// skipped (the ratio is undefined there); a zero mode metric is
// clamped to a small epsilon so a single perfect row (e.g. a 0-gate
// patch) cannot collapse the whole product to zero. The epsilon is
// 1e-3, not machine-tiny, so count metrics in {0,1,2,...} keep a
// sane scale.
func geomeanRatio(rows []Table1Row, base, mode string, metric func(JSONCell) float64) float64 {
	const eps = 1e-3
	sum := 0.0
	n := 0
	for _, r := range rows {
		b := metric(r.Results[base])
		v := metric(r.Results[mode])
		if b <= 0 {
			continue
		}
		if v < eps {
			v = eps
		}
		sum += math.Log(v / b)
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Exp(sum / float64(n))
}

// SortRows orders rows by numeric unit suffix (unit1, unit2, ...).
func SortRows(rows []Table1Row) {
	sort.Slice(rows, func(i, j int) bool {
		var a, b int
		fmt.Sscanf(rows[i].Unit, "unit%d", &a)
		fmt.Sscanf(rows[j].Unit, "unit%d", &b)
		return a < b
	})
}
