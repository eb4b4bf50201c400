package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ecopatch/internal/persist"
)

// TestPersistRestartWarm is the core crash-safety contract: finish a
// job, restart the daemon on the same data dir, and both the job
// history and the result cache must have survived — a duplicate
// submission is served instantly from the persisted result.
func TestPersistRestartWarm(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheEntries: 16, DataDir: dir}

	s1, c1 := newTestServer(t, cfg)
	ctx := context.Background()
	st, err := c1.Submit(ctx, testRequest())
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
	s1.Drain(0)

	_, c2 := newTestServer(t, cfg)
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
	// Duplicate submission: instant hit from the persisted result,
	// pointing at the original job, identical patch.
	st2, err := c2.Submit(ctx, testRequest())
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

// retiredSolvePayloads are solve-cache entries in the record format
// older daemons appended under persist.RecSolve (one Sat entry with
// its model, one Unsat entry).
var retiredSolvePayloads = []string{
	"0100000003000000020000000200000003000000030000000000000003000000040000000100000001000000010300000005",
	"0100000003000000020000000200000003000000030000000000000003000000040000000000000002",
}

// TestPersistSkipsRetiredSolveRecords boots on a data dir written by a
// daemon that still persisted its solve cache: the retired records
// are skipped and logged once with their count, the job history and
// the result cache are restored as usual, the skipped records count
// as garbage, and compaction drops them.
func TestPersistSkipsRetiredSolveRecords(t *testing.T) {
	dir := t.TempDir()
	lg, err := persist.Open(persist.Options{Dir: dir}, func(persist.RecordType, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	for i := 0; i < rounds; i++ {
		for _, s := range retiredSolvePayloads {
			b, err := hex.DecodeString(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := lg.Append(persist.RecSolve, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	lg.Close()
	solveFrames := int64(rounds * len(retiredSolvePayloads))

	// A daemon on this dir finishes one job, so the log also holds a
	// done job's records next to the retired ones.
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

	var logBuf bytes.Buffer
	cfg.Log = log.New(&logBuf, "", 0)
	s2, c2 := newTestServer(t, cfg)
	if n := strings.Count(logBuf.String(), "retired solve-cache records"); n != 1 {
		t.Fatalf("retired records logged %d times, want once:\n%s", n, logBuf.String())
	}
	if want := fmt.Sprintf("skipped %d retired solve-cache records", solveFrames); !strings.Contains(logBuf.String(), want) {
		t.Fatalf("log lacks %q:\n%s", want, logBuf.String())
	}
	got, err := c2.Status(ctx, st.ID)
	if err != nil || got.State != StateDone || got.Result == nil || got.Result.Patch != st.Result.Patch {
		t.Fatalf("restored job = %+v, err %v; want done with its patch", got, err)
	}
	// The result-cache entry came back with it: a duplicate is served
	// from the restored result.
	dup, err := c2.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if dup, err = c2.Wait(ctx, dup.ID, 5*time.Millisecond); err != nil || dup.DedupOf != st.ID {
		t.Fatalf("dup after restart: %+v, err %v; want dedup_of %s", dup, err, st.ID)
	}
	if g := s2.persist.lg.Stats().Garbage; g < solveFrames {
		t.Fatalf("garbage = %d, want >= %d retired solve records", g, solveFrames)
	}

	if err := s2.persist.lg.CompactNow(); err != nil {
		t.Fatal(err)
	}
	s2.Drain(0)
	var solve, jobs int
	lg, err = persist.Open(persist.Options{Dir: dir}, func(typ persist.RecordType, _ []byte) {
		switch typ {
		case persist.RecSolve:
			solve++
		case persist.RecJob:
			jobs++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	lg.Close()
	if solve != 0 || jobs == 0 {
		t.Fatalf("after compaction: replayed %d solve and %d job records, want 0 and > 0", solve, jobs)
	}
}

// TestPersistRecoverInterrupted crafts the log a kill -9 would leave —
// jobs persisted as queued and running with no terminal record — and
// asserts they recover as failed with the distinct recovered marker.
// The log also holds a done job written by an older daemon, whose
// record carries the removed "parallelism" option and portfolio
// counters: it must still replay, done, with its patch.
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
	const oldDone = `{"digest": "00", "status": {"id": "job-old", "name": "o", "state": "done",
		"queued_at": "2024-01-02T03:04:05Z", "options": {"parallelism": 2},
		"result": {"schema": "ecod/result@v1", "cost": 3, "verified": true, "feasible": true,
			"portfolio_races": 2, "portfolio_wins": {"glucose": 2},
			"sat_shared_out": 5, "sat_shared_in": 4, "patch": "module patch();\nendmodule\n"}}}`
	if err := lg.Append(persist.RecJob, []byte(oldDone)); err != nil {
		t.Fatal(err)
	}
	lg.Close()

	_, c := newTestServer(t, Config{Workers: 1, CacheEntries: 16, DataDir: dir})
	ctx := context.Background()
	old, err := c.Status(ctx, "job-old")
	if err != nil {
		t.Fatalf("job-old not restored: %v", err)
	}
	if old.State != StateDone || old.Recovered || old.Result == nil || !old.Result.Verified ||
		old.Result.Cost != 3 || old.Result.Patch != "module patch();\nendmodule\n" {
		t.Fatalf("job-old = %+v, want done with its result", old)
	}
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
		req.Options.TimeoutSec = float64(60 + i) // distinct digests: no dedup
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
