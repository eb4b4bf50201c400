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
	Schema     string   `json:"schema"` // "ecobench/table1@v1"
	Experiment string   `json:"experiment"`
	Scale      int      `json:"scale"`
	Modes      []string `json:"modes"`
	Jobs       int      `json:"jobs"`
	TimeoutSec float64  `json:"timeout_sec,omitempty"`
	// CacheEntries and WarmSpeedup are additive cache-run fields:
	// the shared-cache size of the sweep (0 = no cache) and, for
	// warm-vs-cold runs, the geomean cold/warm wall-clock ratio.
	CacheEntries int       `json:"cache_entries,omitempty"`
	WarmSpeedup  float64   `json:"warm_speedup,omitempty"`
	Rows         []JSONRow `json:"rows"`
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
// aggregated SAT-kernel counters. The counter fields are additive
// extensions; the schema stays ecobench/table1@v1.
type JSONCell struct {
	Cost       int     `json:"cost"`
	PatchGates int     `json:"patch_gates"`
	Seconds    float64 `json:"seconds"`
	SupportSec float64 `json:"support_sec"`
	PatchSec   float64 `json:"patch_sec"`
	VerifySec  float64 `json:"verify_sec"`
	Verified   bool    `json:"verified"`
	Feasible   bool    `json:"feasible"`
	Structural int     `json:"structural"`
	TimedOut   bool    `json:"timed_out,omitempty"`

	SATCalls     int64 `json:"sat_calls"`
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Restarts     int64 `json:"restarts"`
	Learnts      int64 `json:"learnts"`
	LearntEvict  int64 `json:"learnt_evicted"`

	// Additive cache counters (present only when the cell ran with a
	// window store; the schema stays table1@v1). ColdSeconds is
	// set on warm-pass cells to the matching cold cell's wall clock.
	CacheHits       int64   `json:"cache_hits,omitempty"`
	CacheMisses     int64   `json:"cache_misses,omitempty"`
	CacheCollisions int64   `json:"cache_collisions,omitempty"`
	ColdSeconds     float64 `json:"cold_seconds,omitempty"`

	// Additive simulation-layer counters (absent when zero; the schema
	// stays table1@v1).
	SimElided   int64 `json:"sim_elided,omitempty"`
	SimPruned   int64 `json:"sim_pruned,omitempty"`
	SimPatterns int64 `json:"sim_patterns,omitempty"`
}

// cellFromAlgo maps one sweep cell into its JSON form.
func cellFromAlgo(a AlgoResult) JSONCell {
	return JSONCell{
		Cost:       a.Cost,
		PatchGates: a.PatchGates,
		Seconds:    a.Seconds,
		SupportSec: a.SupportSec,
		PatchSec:   a.PatchSec,
		VerifySec:  a.VerifySec,
		Verified:   a.Verified,
		Feasible:   a.Feasible,
		Structural: a.Structural,
		TimedOut:   a.TimedOut,

		SATCalls:     a.SATCalls,
		Conflicts:    a.Conflicts,
		Decisions:    a.Decisions,
		Propagations: a.Propagations,
		Restarts:     a.Restarts,
		Learnts:      a.Learnts,
		LearntEvict:  a.LearntEvict,

		CacheHits:       a.CacheHits,
		CacheMisses:     a.CacheMisses,
		CacheCollisions: a.CacheCollisions,

		SimElided:   a.SimElided,
		SimPruned:   a.SimPruned,
		SimPatterns: a.SimPatterns,
	}
}

// CellFromResult converts one engine result straight into the
// table1@v1 cell form. The Table-1 sweep and the ecod job-result
// writer both go through this mapping, so a job result retrieved over
// HTTP and a benchmark cell written by ecobench -json stay
// field-compatible for downstream trend tooling.
func CellFromResult(res *eco.Result) JSONCell {
	return cellFromAlgo(AlgoFromResult(res))
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
	rep.CacheEntries = opts.CacheEntries
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
			a, ok := r.Results[m]
			if !ok {
				continue
			}
			jr.Results[m] = cellFromAlgo(a)
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
