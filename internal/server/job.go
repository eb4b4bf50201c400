// Package server implements ecod, the ECO-patch service daemon: an
// HTTP/JSON API over the eco engine with a bounded job queue, a
// worker pool running eco.SolveContext under per-job deadlines,
// admission control that sheds load when the queue is full, graceful
// drain, and a live metrics surface aggregating the SAT-kernel
// counters of every finished job.
//
// ECO is an inherently service-shaped workload: change requests
// arrive repeatedly against a mostly-stable design, and solve times
// are heavy-tailed, so the daemon queues work instead of forking per
// request and bounds both the queue and each solve.
package server

import (
	"fmt"
	"strings"
	"time"

	"ecopatch/internal/bench"
	"ecopatch/internal/eco"
	"ecopatch/internal/netlist"
)

// State is a job lifecycle state. Transitions:
//
//	queued → running → done | failed | cancelled | timeout
//	queued → cancelled            (cancelled or shed before a worker picked it up)
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"      // solve completed (result may still be unverified)
	StateFailed    State = "failed"    // engine returned an error
	StateCancelled State = "cancelled" // DELETE /v1/jobs/{id} or server drain
	StateTimeout   State = "timeout"   // per-job deadline expired; partial result attached
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateTimeout:
		return true
	}
	return false
}

// States lists every lifecycle state, for metrics enumeration.
var States = []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateTimeout}

// JobRequest is the body of POST /v1/jobs: one ECO instance in the
// contest text formats plus engine options.
type JobRequest struct {
	// Name labels the job in listings and result files. Optional.
	Name string `json:"name,omitempty"`
	// Impl is the old implementation netlist (F.v source) with free
	// t_* target points.
	Impl string `json:"impl"`
	// Spec is the new specification netlist (S.v source).
	Spec string `json:"spec"`
	// Weights is the signal cost file (weight.txt source). Empty
	// means unit weights.
	Weights string `json:"weights,omitempty"`
	// Options tunes the engine; zero values take the server defaults.
	Options JobOptions `json:"options"`
}

// JobOptions is the JSON projection of eco.Options. Pointer fields
// distinguish "absent" (engine default) from an explicit false.
type JobOptions struct {
	Support         string  `json:"support,omitempty"` // final | minimize | exact
	Patch           string  `json:"patch,omitempty"`   // cubes | interp
	Window          *bool   `json:"window,omitempty"`
	LastGasp        *bool   `json:"last_gasp,omitempty"`
	CEGARMin        *bool   `json:"cegar_min,omitempty"`
	FunctionalMatch *bool   `json:"functional_match,omitempty"`
	UseQBF          *bool   `json:"use_qbf,omitempty"`
	ForceStructural bool    `json:"force_structural,omitempty"`
	ConfBudget      int64   `json:"conf_budget,omitempty"`
	TimeoutSec      float64 `json:"timeout_sec,omitempty"`
}

// Eco materializes the engine options, starting from DefaultOptions.
func (o JobOptions) Eco() (eco.Options, error) {
	opt := eco.DefaultOptions()
	var err error
	if o.Support != "" {
		if opt.Support, err = eco.ParseSupportAlgo(o.Support); err != nil {
			return opt, err
		}
	}
	if o.Patch != "" {
		if opt.Patch, err = eco.ParsePatchMethod(o.Patch); err != nil {
			return opt, err
		}
	}
	if o.Window != nil {
		opt.Window = *o.Window
	}
	if o.LastGasp != nil {
		opt.LastGasp = *o.LastGasp
	}
	if o.CEGARMin != nil {
		opt.CEGARMin = *o.CEGARMin
	}
	if o.FunctionalMatch != nil {
		opt.FunctionalMatch = *o.FunctionalMatch
	}
	if o.UseQBF != nil {
		opt.UseQBF = *o.UseQBF
	}
	opt.ForceStructural = o.ForceStructural
	if o.ConfBudget < 0 {
		return opt, fmt.Errorf("conf_budget must be >= 0")
	}
	opt.ConfBudget = o.ConfBudget
	if o.TimeoutSec < 0 {
		return opt, fmt.Errorf("timeout_sec must be >= 0")
	}
	opt.Timeout = time.Duration(o.TimeoutSec * float64(time.Second))
	return opt, nil
}

// Instance parses and validates the netlists and weights.
func (r *JobRequest) Instance() (*eco.Instance, error) {
	if strings.TrimSpace(r.Impl) == "" {
		return nil, fmt.Errorf("impl netlist is empty")
	}
	if strings.TrimSpace(r.Spec) == "" {
		return nil, fmt.Errorf("spec netlist is empty")
	}
	impl, err := netlist.ParseString(r.Impl)
	if err != nil {
		return nil, fmt.Errorf("impl: %w", err)
	}
	spec, err := netlist.ParseString(r.Spec)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	weights := netlist.NewWeights()
	if strings.TrimSpace(r.Weights) != "" {
		weights, err = netlist.ParseWeights(strings.NewReader(r.Weights))
		if err != nil {
			return nil, fmt.Errorf("weights: %w", err)
		}
	}
	name := r.Name
	if name == "" {
		name = "job"
	}
	inst := &eco.Instance{Name: name, Impl: impl, Spec: spec, Weights: weights}
	if err := inst.Check(); err != nil {
		return nil, err
	}
	return inst, nil
}

// JobStatus is the wire form of one job, returned by every /v1/jobs
// endpoint.
type JobStatus struct {
	ID         string     `json:"id"`
	Name       string     `json:"name,omitempty"`
	State      State      `json:"state"`
	QueuedAt   time.Time  `json:"queued_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	Error      string     `json:"error,omitempty"`
	Result     *JobResult `json:"result,omitempty"`
	// DedupOf names the job whose solve produced (or will produce)
	// this job's result, when the submission was deduplicated by the
	// daemon's content-addressed result cache.
	DedupOf string `json:"dedup_of,omitempty"`
	// Recovered marks a job restored from the persistence log after a
	// daemon crash while it was queued or running: its solve died with
	// the process, so it reports failed with a "recovered" error.
	Recovered bool `json:"recovered,omitempty"`
}

// JobResult is the outcome of a finished solve. It embeds the
// ecobench table1@v1 cell (same field names, same units) so trend
// tooling reads job results and benchmark cells interchangeably, and
// adds the synthesized patch itself.
type JobResult struct {
	Schema string `json:"schema"` // "ecod/result@v1"
	bench.JSONCell
	Targets []eco.TargetPatch `json:"targets,omitempty"`
	// Patch is the synthesized patch module in the contest netlist
	// format (inputs = support signals, outputs = targets).
	Patch string `json:"patch,omitempty"`
}

// ResultSchema identifies the JobResult layout.
const ResultSchema = "ecod/result@v1"

// resultFromEco flattens an engine result into the wire form.
func resultFromEco(res *eco.Result) *JobResult {
	jr := &JobResult{
		Schema:   ResultSchema,
		JSONCell: bench.CellFromResult(res),
		Targets:  res.Patches,
	}
	if res.Patch != nil {
		var sb strings.Builder
		if err := netlist.Write(&sb, res.Patch); err == nil {
			jr.Patch = sb.String()
		}
	}
	return jr
}
