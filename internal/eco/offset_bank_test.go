package eco

import (
	"reflect"
	"slices"
	"testing"

	"ecopatch/internal/sat"
	"ecopatch/internal/sim"
)

// probeLog wraps the offset bank of cube expansion. It records every
// probe the minimizer puts to the bank, in order. In the checked mode
// each probe the bank answers is re-solved on the offset solver, which
// must say Sat; in the silent mode the bank answers nothing, so the
// solver answers every probe.
type probeLog struct {
	t      *testing.T
	silent bool
	probes [][]sat.Lit
	hits   int

	off  *sat.Solver // the current target's offset solver and bank
	bank *sim.ModelBank
}

func (p *probeLog) hook(off *sat.Solver, b *sim.ModelBank) modelFinder {
	p.off, p.bank = off, b
	return p
}

func (p *probeLog) Find(assumps []sat.Lit) int {
	p.probes = append(p.probes, slices.Clone(assumps))
	if p.silent {
		return -1
	}
	m := p.bank.Find(assumps)
	if m >= 0 {
		p.hits++
		if st := p.off.Solve(assumps...); st != sat.Sat {
			p.t.Errorf("probe %d: the bank answered Sat, the offset solver %v", len(p.probes)-1, st)
		}
	}
	return m
}

// TestOffsetBankSound checks the model bank of the per-target offset
// solver on the minimize_assumptions column of units 2, 7 and 17.
// Every probe the bank answers must be Sat on the offset solver, and
// a run in which the bank answers nothing must put the same probes and
// return the same patches: the bank only saves solver work. The SAT
// call counts agree too, since a probe the bank answers counts as a
// SAT call and the checked run re-solves it.
func TestOffsetBankSound(t *testing.T) {
	defer func(h func(*sat.Solver, *sim.ModelBank) modelFinder) { offsetBankHook = h }(offsetBankHook)
	for _, unit := range []string{"unit2", "unit7", "unit17"} {
		t.Run(unit, func(t *testing.T) {
			if testing.Short() && unit != "unit2" {
				t.Skip("takes seconds; skipped in -short")
			}
			run := func(p *probeLog) *Result {
				offsetBankHook = p.hook
				res, err := Solve(loadTestdata(t, unit), DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Verified {
					t.Fatal("not verified")
				}
				return res
			}
			checked := &probeLog{t: t}
			got := run(checked)
			silent := &probeLog{t: t, silent: true}
			want := run(silent)
			if checked.hits == 0 {
				t.Fatal("the offset bank answered no probe")
			}
			if elided := got.Stats.SimElided - want.Stats.SimElided; elided != int64(checked.hits) {
				t.Errorf("SimElided grew by %d, the bank answered %d probes", elided, checked.hits)
			}
			if !reflect.DeepEqual(checked.probes, silent.probes) {
				t.Fatalf("probe sequences differ: %d with the bank, %d without", len(checked.probes), len(silent.probes))
			}
			if !reflect.DeepEqual(got.Patches, want.Patches) || !reflect.DeepEqual(got.Patch, want.Patch) {
				t.Errorf("patches differ:\nwith the bank    %+v\nwithout the bank %+v", got.Patches, want.Patches)
			}
			if got.Stats.SATCalls != want.Stats.SATCalls || got.Stats.Solver.SolveCalls != want.Stats.Solver.SolveCalls {
				t.Errorf("SAT calls %d / solver calls %d with the bank, %d / %d without",
					got.Stats.SATCalls, got.Stats.Solver.SolveCalls, want.Stats.SATCalls, want.Stats.Solver.SolveCalls)
			}
			t.Logf("%d probes, %d answered by the bank", len(checked.probes), checked.hits)
		})
	}
}
