package ecopatch_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildTools compiles the command-line tools once per test run.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("CLI smoke test is POSIX-path based")
	}
	dir := t.TempDir()
	bins := make(map[string]string, len(names))
	for _, n := range names {
		bin := filepath.Join(dir, n)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+n)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", n, err, out)
		}
		bins[n] = bin
	}
	return bins
}

func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestCLIEndToEnd drives the shipped tools the way a user would:
// generate a unit, solve it, verify the equivalences, convert formats.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t, "ecogen", "eco", "ceccheck", "aigconv")
	work := t.TempDir()

	// 1. Generate one benchmark unit.
	out, err := run(t, bins["ecogen"], "-unit", "unit4", "-out", work)
	if err != nil {
		t.Fatalf("ecogen: %v\n%s", err, out)
	}
	unitDir := filepath.Join(work, "unit4")
	for _, f := range []string{"F.v", "S.v", "weight.txt"} {
		if _, err := os.Stat(filepath.Join(unitDir, f)); err != nil {
			t.Fatalf("ecogen did not write %s: %v", f, err)
		}
	}

	// 2. Solve it; the tool exits nonzero on verification failure.
	patch := filepath.Join(work, "patch.v")
	out, err = run(t, bins["eco"], "-dir", unitDir, "-o", patch)
	if err != nil {
		t.Fatalf("eco: %v\n%s", err, out)
	}
	if !strings.Contains(out, "verified=true") {
		t.Fatalf("eco output lacks verification:\n%s", out)
	}

	// 3. JSON mode agrees.
	out, err = run(t, bins["eco"], "-dir", unitDir, "-json", "-o", filepath.Join(work, "p2.v"))
	if err != nil {
		t.Fatalf("eco -json: %v\n%s", err, out)
	}
	if !strings.Contains(out, `"verified": true`) {
		t.Fatalf("json report wrong:\n%s", out)
	}

	// 4. ceccheck: F.v is not equivalent to S.v (targets free), but
	// S.v is equivalent to itself.
	out, err = run(t, bins["ceccheck"], filepath.Join(unitDir, "S.v"), filepath.Join(unitDir, "S.v"))
	if err != nil || !strings.Contains(out, "EQUIVALENT") {
		t.Fatalf("ceccheck self: %v\n%s", err, out)
	}

	// 5. aigconv round trip S.v -> aag -> blif -> v, then CEC.
	aag := filepath.Join(work, "s.aag")
	blif := filepath.Join(work, "s.blif")
	v2 := filepath.Join(work, "s2.v")
	for i, step := range [][2]string{
		{filepath.Join(unitDir, "S.v"), aag},
		{aag, blif},
		{blif, v2},
	} {
		args := []string{step[0], step[1]}
		if i == 0 {
			args = append([]string{"-opt", "-stats"}, args...)
		}
		out, err = run(t, bins["aigconv"], args...)
		if err != nil {
			t.Fatalf("aigconv %s -> %s: %v\n%s", step[0], step[1], err, out)
		}
	}
	out, err = run(t, bins["ceccheck"], filepath.Join(unitDir, "S.v"), v2)
	if err != nil || !strings.Contains(out, "EQUIVALENT") {
		t.Fatalf("converted netlist not equivalent: %v\n%s", err, out)
	}

	// 6. Structural mode and alternative support algorithms still
	// verify on the same unit.
	for _, extra := range [][]string{
		{"-support", "final"},
		{"-support", "exact"},
		{"-structural"},
		{"-patch", "interp"},
		{"-no-window"},
	} {
		args := append([]string{"-dir", unitDir, "-o", filepath.Join(work, "px.v")}, extra...)
		out, err = run(t, bins["eco"], args...)
		if err != nil {
			t.Fatalf("eco %v: %v\n%s", extra, err, out)
		}
	}
}

// TestCLITimedOut pins what eco reports when the deadline expires
// before any target is patched: the result is called unverified
// because of the deadline, not a failed verification of a patch that
// does not exist, the run exits nonzero, and -json writes an empty
// target list rather than null and no feasibility verdict, since the
// check never answered.
func TestCLITimedOut(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t, "eco")
	unitDir := filepath.Join("internal", "eco", "testdata", "unit14")
	// 1ns expires during setup, so no target is patched.
	out, err := run(t, bins["eco"], "-dir", unitDir, "-timeout", "1ns", "-o", filepath.Join(t.TempDir(), "p.v"))
	if err == nil {
		t.Fatalf("timed-out run exited 0:\n%s", out)
	}
	if !strings.Contains(out, "no patch for t_0") || !strings.Contains(out, "unverified because the deadline expired") {
		t.Fatalf("timed-out run not reported as such:\n%s", out)
	}
	if strings.Contains(out, "failed verification") {
		t.Fatalf("timed-out run reported as a failed verification:\n%s", out)
	}

	out, err = run(t, bins["eco"], "-dir", unitDir, "-timeout", "1ns", "-json", "-o", "-")
	if err == nil {
		t.Fatalf("timed-out -json run exited 0:\n%s", out)
	}
	var rep struct {
		TimedOut bool              `json:"timed_out"`
		Verified bool              `json:"verified"`
		Feasible *bool             `json:"feasible"`
		Targets  []json.RawMessage `json:"targets"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output: %v\n%s", err, out)
	}
	if !rep.TimedOut || rep.Verified || rep.Targets == nil || len(rep.Targets) != 0 {
		t.Fatalf("-json report: timed_out=%v verified=%v targets=%v, want true, false, []\n%s",
			rep.TimedOut, rep.Verified, rep.Targets, out)
	}
	if rep.Feasible != nil {
		t.Fatalf("-json report of a run cut short before the verdict writes feasible=%v\n%s", *rep.Feasible, out)
	}
}
