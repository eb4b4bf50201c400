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

// TestRemovedPrepOptionIgnored pins wire compatibility for the
// removed "preprocess", "rewrite" and "sim" job options: old clients and
// persisted requests still send them, so a raw submission carrying
// them is accepted and solved with the fields ignored — also next to
// patch "interp", a combination "preprocess" used to reject.
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
	} {
		body, err := json.Marshal(map[string]any{
			"name": "tiny", "impl": implSrc, "spec": specSrc, "options": json.RawMessage(tc.options),
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
			t.Fatalf("options %s: status %d, want %d", tc.options, resp.StatusCode, http.StatusCreated)
		}
		st, err = c.Wait(ctx, st.ID, 2*time.Millisecond)
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

// TestDedupNormalizesParallelism: submissions whose parallelism
// normalizes to the same thread count run the identical solve, so the
// second is served as a dedup of the first — 0 and 1 (0 means serial),
// and 4 and 8 on a 2-slot daemon (both clamp to the pool).
func TestDedupNormalizesParallelism(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 8, CacheEntries: 16, CPUSlots: 2})
	ctx := context.Background()
	for _, pair := range [][2]int{{0, 1}, {4, 8}} {
		req := testRequest()
		req.Options.Parallelism = pair[0]
		first, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		first, err = c.Wait(ctx, first.ID, 2*time.Millisecond)
		if err != nil || first.State != StateDone {
			t.Fatalf("parallelism %d: %v %+v", pair[0], err, first)
		}
		if first.DedupOf != "" {
			t.Fatalf("parallelism %d: served as dedup of %s, want a fresh solve", pair[0], first.DedupOf)
		}
		req.Options.Parallelism = pair[1]
		second, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if second.DedupOf != first.ID {
			t.Fatalf("parallelism %d after %d: dedup_of = %q, want %q", pair[1], pair[0], second.DedupOf, first.ID)
		}
	}
}
