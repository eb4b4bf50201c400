package bench

import (
	"encoding/json"
	"io"
	"time"

	"ecopatch/internal/eco"
)

// JSONReport is the machine-readable form of a Table-1 sweep, written
// by `ecobench -json`. Schema identifies the layout so downstream
// tooling can reject files it does not understand.
type JSONReport struct {
	Schema     string    `json:"schema"` // "ecobench/table1@v1"
	Experiment string    `json:"experiment"`
	Scale      int       `json:"scale"`
	Modes      []string  `json:"modes"`
	Jobs       int       `json:"jobs"`
	TimeoutSec float64   `json:"timeout_sec,omitempty"`
	Rows       []JSONRow `json:"rows"`
}

// JSONRow is one benchmark unit; Results is keyed by mode name.
type JSONRow struct {
	Unit      string              `json:"unit"`
	PIs       int                 `json:"pis"`
	POs       int                 `json:"pos"`
	GatesImpl int                 `json:"gates_impl"`
	GatesSpec int                 `json:"gates_spec"`
	Targets   int                 `json:"targets"`
	Results   map[string]JSONCell `json:"results"`
}

// JSONCell is one (unit, mode) result with per-stage timings and
// aggregated SAT-kernel counters: the cell type of Table1Row, the
// ecobench -json report and the ecod job result alike. The counter
// fields are additive extensions; the schema stays ecobench/table1@v1.
type JSONCell struct {
	Cost       int     `json:"cost"`
	PatchGates int     `json:"patch_gates"`
	Seconds    float64 `json:"seconds"`
	SupportSec float64 `json:"support_sec"`
	PatchSec   float64 `json:"patch_sec"`
	VerifySec  float64 `json:"verify_sec"`
	Verified   bool    `json:"verified"`
	Feasible   *bool   `json:"feasible,omitempty"` // nil: cut short before the verdict
	Structural int     `json:"structural"`
	TimedOut   bool    `json:"timed_out,omitempty"`

	SATCalls     int64 `json:"sat_calls"`
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Restarts     int64 `json:"restarts"`
	Learnts      int64 `json:"learnts"`
	LearntEvict  int64 `json:"learnt_evicted"`

	// Additive simulation-layer counters (absent when zero; the schema
	// stays table1@v1).
	SimElided   int64 `json:"sim_elided,omitempty"`
	SimPruned   int64 `json:"sim_pruned,omitempty"`
	SimPatterns int64 `json:"sim_patterns,omitempty"`
}

// CellFromResult converts one engine result into the table1@v1 cell
// form: the one mapping from eco.Result to a cell. The Table-1 sweep,
// ecobench -json and the ecod job-result writer all go through it, so
// a job result retrieved over HTTP and a benchmark cell written by
// ecobench -json stay field-compatible for downstream trend tooling.
// sat_calls is the kernel's Solve() count (Stats.Solver.SolveCalls),
// not the engine's query count Stats.SATCalls.
func CellFromResult(res *eco.Result) JSONCell {
	st := &res.Stats
	return JSONCell{
		Cost:       res.TotalCost,
		PatchGates: res.TotalGates,
		Seconds:    res.Elapsed.Seconds(),
		SupportSec: st.SupportTime.Seconds(),
		PatchSec:   st.PatchTime.Seconds(),
		VerifySec:  st.VerifyTime.Seconds(),
		Verified:   res.Verified,
		Feasible:   Verdict(res),
		Structural: st.StructuralFixes,
		TimedOut:   res.TimedOut,

		SATCalls:     st.Solver.SolveCalls,
		Conflicts:    st.Solver.Conflicts,
		Decisions:    st.Solver.Decisions,
		Propagations: st.Solver.Propagations,
		Restarts:     st.Solver.Restarts,
		Learnts:      st.Solver.Learnts,
		LearntEvict:  st.Solver.Removed,

		SimElided:   st.SimElided,
		SimPruned:   st.SimPruned,
		SimPatterns: st.SimPatterns,
	}
}

// Verdict is res.Feasible for the JSON reports: nil, no verdict, for a
// run cut short before a verified patch or the feasibility check gave
// one (see eco.SolveContext).
func Verdict(res *eco.Result) *bool {
	if res.TimedOut && !res.Feasible {
		return nil
	}
	return &res.Feasible
}

// NewJSONReport converts a finished sweep into the report form.
func NewJSONReport(opts RunOptions, modes []string, rows []Table1Row) JSONReport {
	rep := JSONReport{
		Schema:     "ecobench/table1@v1",
		Experiment: "table1",
		Scale:      opts.Scale,
		Modes:      modes,
		Jobs:       opts.Jobs,
		Rows:       make([]JSONRow, 0, len(rows)),
	}
	if rep.Jobs < 1 {
		rep.Jobs = 1
	}
	if opts.Timeout > 0 {
		rep.TimeoutSec = float64(opts.Timeout) / float64(time.Second)
	}
	for _, r := range rows {
		jr := JSONRow{
			Unit:      r.Unit,
			PIs:       r.PIs,
			POs:       r.POs,
			GatesImpl: r.GatesF,
			GatesSpec: r.GatesS,
			Targets:   r.Targets,
			Results:   make(map[string]JSONCell, len(r.Results)),
		}
		for _, m := range modes {
			if c, ok := r.Results[m]; ok {
				jr.Results[m] = c
			}
		}
		rep.Rows = append(rep.Rows, jr)
	}
	return rep
}

// WriteJSON emits the report as indented JSON.
func WriteJSON(w io.Writer, rep JSONReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
