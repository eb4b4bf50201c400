package bench

import (
	"reflect"
	"testing"
)

// TestRunTable1Warm runs one small unit cold and warm against a
// shared cache: the passes must agree on everything but wall clock,
// the warm pass must actually hit, and the JSON report must carry the
// additive cache fields.
func TestRunTable1Warm(t *testing.T) {
	opts := RunOptions{
		Scale:        1,
		Modes:        []string{ModeMinAssume},
		Units:        []string{"unit1"},
		CacheEntries: 512,
	}
	run, err := RunTable1Warm(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Cold) != 1 || len(run.Warm) != 1 {
		t.Fatalf("rows: cold %d warm %d", len(run.Cold), len(run.Warm))
	}
	ca := run.Cold[0].Results[ModeMinAssume]
	wa := run.Warm[0].Results[ModeMinAssume]
	if wa.CacheHits == 0 {
		t.Fatal("warm pass recorded no cache hits")
	}
	if ca.CacheMisses == 0 {
		t.Fatal("cold pass recorded no cache misses")
	}
	// Strip the pass-dependent fields (wall clock, cache traffic, and
	// the work counters a cache hit skips); everything else must match.
	norm := func(a AlgoResult) AlgoResult {
		a.Seconds, a.SupportSec, a.PatchSec, a.VerifySec = 0, 0, 0, 0
		a.CacheHits, a.CacheMisses, a.CacheCollisions = 0, 0, 0
		a.SATCalls, a.Conflicts, a.Decisions, a.Propagations = 0, 0, 0, 0
		a.Restarts, a.Learnts, a.LearntEvict = 0, 0, 0
		a.SimElided, a.SimPruned, a.SimPatterns = 0, 0, 0
		return a
	}
	if !reflect.DeepEqual(norm(ca), norm(wa)) {
		t.Fatalf("warm pass diverged:\ncold %+v\nwarm %+v", norm(ca), norm(wa))
	}
	if run.Speedup <= 0 {
		t.Fatalf("speedup = %v", run.Speedup)
	}

	rep := NewWarmJSONReport(opts, opts.Modes, run)
	if rep.CacheEntries != 512 || rep.WarmSpeedup != run.Speedup {
		t.Fatalf("report cache fields: %+v", rep)
	}
	cell := rep.Rows[0].Results[ModeMinAssume]
	if cell.ColdSeconds != ca.Seconds {
		t.Fatalf("cold_seconds = %v, want %v", cell.ColdSeconds, ca.Seconds)
	}
}
