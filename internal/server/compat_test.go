package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"ecopatch/internal/eco"
)

// postRaw submits the tiny test instance with options given as raw
// JSON, the way an old client sends fields JobOptions no longer has,
// and returns the accepted job's status.
func postRaw(t *testing.T, c *Client, options string) JobStatus {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"name": "tiny", "impl": implSrc, "spec": specSrc, "options": json.RawMessage(options),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("options %s: status %d, want %d", options, resp.StatusCode, http.StatusCreated)
	}
	return st
}

// TestRemovedPrepOptionIgnored pins wire compatibility for the
// removed "preprocess", "rewrite", "sim", "parallelism", "use_qbf",
// "functional_match" and "conf_budget" job options:
// old clients and persisted requests still send them, so a raw
// submission carrying them is accepted and solved with the fields
// ignored — also next to patch "interp", a combination "preprocess"
// used to reject, and with a negative "parallelism" or "conf_budget"
// the daemon used to reject.
func TestRemovedPrepOptionIgnored(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	solve := s.solve
	patches := make(chan eco.PatchMethod, 4)
	s.solve = func(ctx context.Context, inst *eco.Instance, opt eco.Options) (*eco.Result, error) {
		patches <- opt.Patch
		return solve(ctx, inst, opt)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		options string
		want    eco.PatchMethod
	}{
		{`{"preprocess": true}`, eco.PatchCubeEnum},
		{`{"preprocess": true, "patch": "interp"}`, eco.PatchInterpolation},
		{`{"rewrite": true}`, eco.PatchCubeEnum},
		{`{"preprocess": true, "rewrite": true}`, eco.PatchCubeEnum},
		{`{"sim": true}`, eco.PatchCubeEnum},
		{`{"sim": false}`, eco.PatchCubeEnum},
		{`{"preprocess": true, "sim": true, "rewrite": true}`, eco.PatchCubeEnum},
		{`{"parallelism": 2}`, eco.PatchCubeEnum},
		{`{"parallelism": 0}`, eco.PatchCubeEnum},
		{`{"parallelism": -1, "sim": true}`, eco.PatchCubeEnum},
		{`{"use_qbf": false}`, eco.PatchCubeEnum},
		{`{"use_qbf": true}`, eco.PatchCubeEnum},
		{`{"functional_match": false}`, eco.PatchCubeEnum},
		{`{"conf_budget": 7}`, eco.PatchCubeEnum},
		{`{"conf_budget": 0}`, eco.PatchCubeEnum},
		{`{"conf_budget": -1}`, eco.PatchCubeEnum},
	} {
		st, err := c.Wait(ctx, postRaw(t, c, tc.options).ID, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || st.Result == nil || !st.Result.Verified {
			t.Fatalf("options %s: job not solved and verified: %+v", tc.options, st)
		}
		if got := <-patches; got != tc.want {
			t.Fatalf("options %s: solved with patch method %v, want %v", tc.options, got, tc.want)
		}
	}
}

// TestDedupNormalizesParallelism: the ignored "parallelism",
// "use_qbf", "functional_match" and "conf_budget" fields do not enter
// the request digest, so submissions that differ from {} only in them run the
// identical solve, and each is served as a dedup of the first.
func TestDedupNormalizesParallelism(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 8, CacheEntries: 16})
	ctx := context.Background()
	first, err := c.Wait(ctx, postRaw(t, c, `{}`).ID, 2*time.Millisecond)
	if err != nil || first.State != StateDone {
		t.Fatalf("first job: %v %+v", err, first)
	}
	if first.DedupOf != "" {
		t.Fatalf("first job served as dedup of %s, want a fresh solve", first.DedupOf)
	}
	for _, options := range []string{
		`{"parallelism": 1}`, `{"parallelism": 4}`,
		`{"use_qbf": false}`, `{"functional_match": false}`,
		`{"conf_budget": 7}`, `{"conf_budget": 0}`, `{"conf_budget": -1}`,
	} {
		if st := postRaw(t, c, options); st.DedupOf != first.ID {
			t.Fatalf("options %s: dedup_of = %q, want %q", options, st.DedupOf, first.ID)
		}
	}
}
