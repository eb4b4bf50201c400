package bench

import (
	"strings"
	"testing"
)

func TestTable1OptionsMapping(t *testing.T) {
	for _, mode := range Modes {
		opt, err := Table1Options(mode, false)
		if err != nil {
			t.Fatal(err)
		}
		if opt.ForceStructural {
			t.Fatalf("%s: non-structural unit forced structural", mode)
		}
	}
	optS, err := Table1Options(ModeBaseline, true)
	if err != nil {
		t.Fatal(err)
	}
	if !optS.ForceStructural || optS.CEGARMin {
		t.Fatal("structural baseline must force §3.6 without CEGAR_min")
	}
	optSE, err := Table1Options(ModeExact, true)
	if err != nil {
		t.Fatal(err)
	}
	if !optSE.ForceStructural || !optSE.CEGARMin {
		t.Fatal("structural exact must force §3.6 with CEGAR_min")
	}
	if _, err := Table1Options("bogus", false); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRunUnitAllModesOnSmallUnit(t *testing.T) {
	cfg, err := ConfigByName(1, "unit4")
	if err != nil {
		t.Fatal(err)
	}
	row := Table1Row{}
	var elided int64
	for _, mode := range Modes {
		r, err := RunUnit(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		if row.Unit == "" {
			row = r
		} else {
			row.Results[mode] = r.Results[mode]
		}
		a := r.Results[mode]
		if !a.Feasible || !a.Verified {
			t.Fatalf("%s/%s: feasible=%v verified=%v", cfg.Name, mode, a.Feasible, a.Verified)
		}
		elided += a.SimElided
	}
	// The simulation layer demonstrably does work: the pattern bank
	// answers at least one SAT call without the solver.
	if elided == 0 {
		t.Fatalf("no SAT call elided by the pattern bank on %s", cfg.Name)
	}
	// minassume and exact must not cost more than the baseline allows
	// by construction of the benchmark (weak sanity: all ran).
	if row.Results[ModeExact].Cost > row.Results[ModeBaseline].Cost {
		t.Fatalf("exact (%d) worse than baseline (%d) on unit4",
			row.Results[ModeExact].Cost, row.Results[ModeBaseline].Cost)
	}
	var sb strings.Builder
	PrintTable1(&sb, []Table1Row{row}, Modes)
	outStr := sb.String()
	if !strings.Contains(outStr, "unit4") || !strings.Contains(outStr, "geomean") {
		t.Fatalf("table output malformed:\n%s", outStr)
	}
}

func TestGeomeanRatio(t *testing.T) {
	rows := []Table1Row{
		{Unit: "a", Results: map[string]JSONCell{
			"x": {Cost: 100}, "y": {Cost: 25},
		}},
		{Unit: "b", Results: map[string]JSONCell{
			"x": {Cost: 100}, "y": {Cost: 100},
		}},
	}
	got := geomeanRatio(rows, "x", "y", func(a JSONCell) float64 { return float64(a.Cost) })
	// sqrt(0.25 * 1.0) = 0.5
	if got < 0.49 || got > 0.51 {
		t.Fatalf("geomean = %v, want 0.5", got)
	}
	// Zero entries are skipped, not fatal.
	rows = append(rows, Table1Row{Unit: "c", Results: map[string]JSONCell{
		"x": {Cost: 0}, "y": {Cost: 5},
	}})
	got2 := geomeanRatio(rows, "x", "y", func(a JSONCell) float64 { return float64(a.Cost) })
	if got2 != got {
		t.Fatalf("zero row not skipped: %v vs %v", got2, got)
	}
}

func TestSortRows(t *testing.T) {
	rows := []Table1Row{{Unit: "unit10"}, {Unit: "unit2"}, {Unit: "unit1"}}
	SortRows(rows)
	if rows[0].Unit != "unit1" || rows[1].Unit != "unit2" || rows[2].Unit != "unit10" {
		t.Fatalf("sorted wrong: %v %v %v", rows[0].Unit, rows[1].Unit, rows[2].Unit)
	}
}
