package server

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ecopatch/internal/persist"
)

// persistRequest is the tiny job with feasibility decided by cofactor
// expansion instead of 2QBF: that check is a cached SAT query, so the
// solve leaves solve-cache entries to persist. (Under the default QBF
// path the only cached query is the final verification, which the
// fraig front end settles before any solver or cache is reached.)
func persistRequest() JobRequest {
	req := testRequest()
	useQBF := false
	req.Options.UseQBF = &useQBF
	return req
}

// TestPersistRestartWarm is the core crash-safety contract: finish a
// job, restart the daemon on the same data dir, and both the job
// history and the result cache must have survived — a duplicate
// submission is served instantly from the persisted result.
func TestPersistRestartWarm(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheEntries: 16, DataDir: dir}

	s1, c1 := newTestServer(t, cfg)
	ctx := context.Background()
	st, err := c1.Submit(ctx, persistRequest())
	if err != nil {
		t.Fatal(err)
	}
	st, err = c1.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil || st.State != StateDone {
		t.Fatalf("first run: %+v, err %v", st, err)
	}
	if st.Result == nil || st.Result.Patch == "" {
		t.Fatal("first run produced no patch")
	}
	firstPatch := st.Result.Patch
	solveEntries := s1.ecoCache.Solve.Stats().Entries
	if solveEntries == 0 {
		t.Fatal("solve produced no cache entries to persist")
	}
	s1.Drain(0)

	s2, c2 := newTestServer(t, cfg)
	// Job history survived, result included.
	got, err := c2.Status(ctx, st.ID)
	if err != nil {
		t.Fatalf("restored job not found: %v", err)
	}
	if got.State != StateDone || got.Recovered {
		t.Fatalf("restored job = %+v, want done and not recovered", got)
	}
	if got.Result == nil || got.Result.Patch != firstPatch {
		t.Fatal("restored job lost its result")
	}
	// Solve cache warmed from disk.
	if n := s2.ecoCache.Solve.Stats().Entries; n != solveEntries {
		t.Fatalf("solve cache restored %d entries, want %d", n, solveEntries)
	}
	// Duplicate submission: instant hit from the persisted result,
	// pointing at the original job, identical patch.
	st2, err := c2.Submit(ctx, persistRequest())
	if err != nil {
		t.Fatal(err)
	}
	st2, err = c2.Wait(ctx, st2.ID, 5*time.Millisecond)
	if err != nil || st2.State != StateDone {
		t.Fatalf("dup after restart: %+v, err %v", st2, err)
	}
	if st2.DedupOf != st.ID {
		t.Fatalf("dup dedup_of = %q, want %q", st2.DedupOf, st.ID)
	}
	if st2.Result == nil || st2.Result.Patch != firstPatch {
		t.Fatal("dup served a different patch than the persisted result")
	}
	if hits := metricValue(t, fetchMetrics(t, c2), "ecod_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits after restart = %v, want 1", hits)
	}
}

// TestPersistRecoverInterrupted crafts the log a kill -9 would leave —
// jobs persisted as queued and running with no terminal record — and
// asserts they recover as failed with the distinct recovered marker.
func TestPersistRecoverInterrupted(t *testing.T) {
	dir := t.TempDir()
	lg, err := persist.Open(persist.Options{Dir: dir}, func(persist.RecordType, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for _, rec := range []jobRecord{
		{Status: JobStatus{ID: "job-queued", Name: "q", State: StateQueued, QueuedAt: now}},
		{Status: JobStatus{ID: "job-running", Name: "r", State: StateRunning, QueuedAt: now, StartedAt: &now}},
		// Out-of-order append: the queued record lands after running,
		// but replay must keep the more advanced state.
		{Status: JobStatus{ID: "job-running", Name: "r", State: StateQueued, QueuedAt: now}},
	} {
		b, _ := json.Marshal(rec)
		if err := lg.Append(persist.RecJob, b); err != nil {
			t.Fatal(err)
		}
	}
	lg.Close()

	_, c := newTestServer(t, Config{Workers: 1, CacheEntries: 16, DataDir: dir})
	ctx := context.Background()
	for id, wasState := range map[string]State{"job-queued": StateQueued, "job-running": StateRunning} {
		st, err := c.Status(ctx, id)
		if err != nil {
			t.Fatalf("%s not restored: %v", id, err)
		}
		if st.State != StateFailed || !st.Recovered {
			t.Fatalf("%s = %+v, want failed+recovered", id, st)
		}
		if !strings.Contains(st.Error, "recovered") || !strings.Contains(st.Error, string(wasState)) {
			t.Fatalf("%s error = %q, want recovered-while-%s", id, st.Error, wasState)
		}
	}
}

// TestPersistTornTail appends garbage to the active segment (a torn
// crash tail) and asserts the daemon recovers the intact prefix,
// counts the torn tail, and keeps serving.
func TestPersistTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheEntries: 16, DataDir: dir}

	s1, c1 := newTestServer(t, cfg)
	ctx := context.Background()
	st, err := c1.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c1.Wait(ctx, st.ID, 5*time.Millisecond); err != nil || st.State != StateDone {
		t.Fatalf("run: %+v, err %v", st, err)
	}
	s1.Drain(0)

	// Tear the tail of the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
	f.Close()

	s2, c2 := newTestServer(t, cfg)
	if tt := s2.persist.lg.Stats().TornTail; tt != 1 {
		t.Fatalf("torn_tail = %d, want 1", tt)
	}
	if torn := metricValue(t, fetchMetrics(t, c2), "ecod_persist_torn_tail_total"); torn != 1 {
		t.Fatalf("torn_tail metric = %v, want 1", torn)
	}
	// History intact and the daemon still serves new work.
	if got, err := c2.Status(ctx, st.ID); err != nil || got.State != StateDone {
		t.Fatalf("after torn tail: %+v, err %v", got, err)
	}
	st2, err := c2.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = c2.Wait(ctx, st2.ID, 5*time.Millisecond); err != nil || st2.State != StateDone {
		t.Fatalf("submit after torn tail: %+v, err %v", st2, err)
	}
}

// TestListFilters exercises the -state/-limit listing path end to end:
// server query params, client plumbing, and validation.
func TestListFilters(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, Config{Workers: 1, CacheEntries: 0, DataDir: dir})
	ctx := context.Background()

	var ids []string
	for i := 0; i < 3; i++ {
		req := testRequest()
		req.Options.ConfBudget = int64(i + 1) // distinct digests: no dedup
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil || st.State != StateDone {
			t.Fatalf("job %d: %+v, err %v", i, st, err)
		}
		ids = append(ids, st.ID)
	}

	done, err := c.List(ctx, "done", 0)
	if err != nil || len(done) != 3 {
		t.Fatalf("state=done: %d jobs, err %v; want 3", len(done), err)
	}
	if queued, err := c.List(ctx, "queued", 0); err != nil || len(queued) != 0 {
		t.Fatalf("state=queued: %d jobs, err %v; want 0", len(queued), err)
	}
	last, err := c.List(ctx, "", 2)
	if err != nil || len(last) != 2 {
		t.Fatalf("limit=2: %d jobs, err %v; want 2", len(last), err)
	}
	// Limit keeps the most recent submissions, in submission order.
	if last[0].ID != ids[1] || last[1].ID != ids[2] {
		t.Fatalf("limit=2 returned %s,%s; want %s,%s", last[0].ID, last[1].ID, ids[1], ids[2])
	}
	if _, err := c.List(ctx, "bogus", 0); err == nil {
		t.Fatal("state=bogus accepted, want 400")
	}
	// Filters survive a restart (listing the restored history).
	srv, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.store.List(StateDone, 1); len(got) != 1 || got[0].ID != ids[2] {
		t.Fatalf("restored List(done,1) = %+v, want [%s]", got, ids[2])
	}
	srv.Drain(0)
}

// TestPersistMetricsSurface asserts the new metric families render.
func TestPersistMetricsSurface(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, CacheEntries: 4, DataDir: t.TempDir()})
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ecod_persist_records_total",
		"ecod_persist_bytes_total",
		"ecod_persist_replayed_total",
		"ecod_persist_torn_tail_total",
		"ecod_persist_compactions_total",
		"ecod_persist_fsync_batches_total",
		"ecod_uptime_seconds",
		"ecod_build_info{go_version=",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %s", want)
		}
	}
}

// fetchMetrics dumps the exposition for metricValue (cache_test.go).
func fetchMetrics(t *testing.T, c *Client) string {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return text
}
