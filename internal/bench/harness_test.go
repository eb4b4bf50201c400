package bench

import (
	"bytes"
	"context"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ecopatch/internal/eco"
)

// zeroTimings strips the wall-clock fields so two otherwise-identical
// sweeps can be compared byte for byte.
func zeroTimings(rows []Table1Row) {
	for _, r := range rows {
		for m, a := range r.Results {
			a.Seconds, a.SupportSec, a.PatchSec, a.VerifySec = 0, 0, 0, 0
			r.Results[m] = a
		}
	}
}

// TestRunTable1ParallelDeterminism checks the worker-pool fan-out:
// modulo timing columns, a -j 4 sweep must render byte-identically to
// the sequential one (every cell regenerates its instance and all
// engine randomness is instance-local).
func TestRunTable1ParallelDeterminism(t *testing.T) {
	units := []string{"unit1", "unit4", "unit5", "unit10"}
	render := func(jobs int) string {
		rows, err := RunTable1With(RunOptions{Scale: 1, Jobs: jobs, Units: units}, nil)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		zeroTimings(rows)
		var sb strings.Builder
		PrintTable1(&sb, rows, Modes)
		return sb.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Fatalf("parallel sweep differs from sequential:\n--- j=1 ---\n%s--- j=4 ---\n%s", seq, par)
	}
}

func TestRunTable1WithUnknownUnit(t *testing.T) {
	if _, err := RunTable1With(RunOptions{Scale: 1, Units: []string{"nope"}}, nil); err == nil {
		t.Fatal("unknown unit name accepted")
	}
}

// TestTimeoutPartialResult arms an already-expired deadline: the solve
// must still return a (degraded, unverified) result with TimedOut set
// rather than an error or a hang.
func TestTimeoutPartialResult(t *testing.T) {
	cfg, err := ConfigByName(1, "unit7")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := eco.DefaultOptions()
	opt.Timeout = time.Nanosecond
	res, err := eco.Solve(inst, opt)
	if err != nil {
		t.Fatalf("expired deadline must yield a partial result, got error: %v", err)
	}
	if !res.TimedOut {
		t.Fatal("TimedOut not set on an expired deadline")
	}
	for _, p := range res.Patches {
		if !p.Structural {
			t.Fatalf("target %s patched by SAT under an expired deadline", p.Target)
		}
	}
}

// cancelAt is an Options.Log writer that cancels the solve's context
// when the first progress line starting with prefix appears, so a test
// can cut a run short at a fixed stage without racing a wall clock.
type cancelAt struct {
	prefix string
	cancel context.CancelFunc
}

func (c cancelAt) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte(c.prefix)) {
		c.cancel()
	}
	return len(p), nil
}

// TestDeadlineVerdict pins what a run cut short reports about
// feasibility. Cut after its first target: unit9 has 4 targets, so no
// feasibility check runs before the patches, and the run ends with no
// patches and no verdict, which the JSON forms omit; unit14 has 12,
// more than MaxQuantExpand+1, so its check ran first and its verdict
// stands. Cut as unit14's up-front check starts: the check never
// finished, so there is no verdict.
func TestDeadlineVerdict(t *testing.T) {
	for _, c := range []struct {
		unit, cancelAt string
		verdict        string // Verdict(res) printed, "nil" for none
	}{
		{"unit9", "target ", "nil"},
		{"unit14", "target ", "true"},
		{"unit14", "feasibility: 2QBF check first", "nil"},
	} {
		name := c.unit + " cut at " + strconv.Quote(c.cancelAt)
		inst, err := eco.LoadDir(filepath.Join("..", "eco", "testdata", c.unit))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		opt := eco.DefaultOptions()
		opt.Log = cancelAt{c.cancelAt, cancel}
		res, err := eco.SolveContext(ctx, inst, opt)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.TimedOut || len(res.Patches) != 0 || res.Verified {
			t.Fatalf("%s: timedOut=%v patches=%d verified=%v, want true, 0, false",
				name, res.TimedOut, len(res.Patches), res.Verified)
		}
		if want := c.verdict == "true"; res.Feasible != want {
			t.Fatalf("%s: feasible=%v, want %v", name, res.Feasible, want)
		}
		got := "nil"
		if v := Verdict(res); v != nil {
			got = strconv.FormatBool(*v)
		}
		if got != c.verdict {
			t.Fatalf("%s: Verdict = %s, want %s", name, got, c.verdict)
		}
	}
}
