package server

import (
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ecopatch/internal/eco"
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

// TestPersistRefusesSegmentLog boots on a data dir an older daemon
// left as a segment log: New refuses it, names the files, and leaves
// them in place rather than starting with the history silently gone.
func TestPersistRefusesSegmentLog(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-00000000000000000001.log")
	if err := os.WriteFile(seg, []byte{0xde, 0xad, 0xbe, 0xef}, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Workers: 1, DataDir: dir})
	if err == nil {
		srv.Drain(0)
		t.Fatal("New accepted a data dir holding a segment log")
	}
	if !strings.Contains(err.Error(), seg) {
		t.Fatalf("error %q does not name %s", err, seg)
	}
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("segment file not left in place: %v", err)
	}
}

// writeJobFile writes one job file the way the daemon does.
func writeJobFile(t *testing.T, dir string, rec jobRecord) {
	t.Helper()
	b, err := encodeJobFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, rec.Status.ID+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// readJobFile decodes one job file; ok is false when it is missing.
func readJobFile(t *testing.T, dir, id string) (rec jobRecord, ok bool) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if errors.Is(err, os.ErrNotExist) {
		return jobRecord{}, false
	}
	if err != nil {
		t.Fatal(err)
	}
	if rec, err = decodeJobFile(b); err != nil {
		t.Fatalf("job file %s: %v", id, err)
	}
	return rec, true
}

// TestPersistRecoverInterrupted crafts the files a kill -9 would leave
// — jobs persisted as queued and running with no terminal write — and
// asserts they recover as failed with the distinct recovered marker,
// and that their files are rewritten so a second restart agrees. The
// dir also holds a done job written by an older daemon, whose record
// carries the removed "parallelism" option and portfolio counters: it
// must still replay, done, with its patch.
func TestPersistRecoverInterrupted(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	writeJobFile(t, dir, jobRecord{Status: JobStatus{ID: "job-queued", Name: "q", State: StateQueued, QueuedAt: now}})
	writeJobFile(t, dir, jobRecord{Status: JobStatus{ID: "job-running", Name: "r", State: StateRunning, QueuedAt: now, StartedAt: &now}})
	const oldDone = `{"digest":"00","status":{"id":"job-old","name":"o","state":"done",` +
		`"queued_at":"2024-01-02T03:04:05Z","options":{"parallelism":2},` +
		`"result":{"schema":"ecod/result@v1","cost":3,"verified":true,"feasible":true,` +
		`"portfolio_races":2,"portfolio_wins":{"glucose":2},` +
		`"sat_shared_out":5,"sat_shared_in":4,"patch":"module patch();\nendmodule\n"}}}`
	b, err := json.Marshal(jobFile{Record: json.RawMessage(oldDone), CRC: crc32.Checksum([]byte(oldDone), crcTable)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-old.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := Config{Workers: 1, CacheEntries: 16, DataDir: dir}
	ctx := context.Background()
	wantErr := map[string]string{}
	for boot := 1; boot <= 2; boot++ {
		s, c := newTestServer(t, cfg)
		old, err := c.Status(ctx, "job-old")
		if err != nil {
			t.Fatalf("boot %d: job-old not restored: %v", boot, err)
		}
		if old.State != StateDone || old.Recovered || old.Result == nil || !old.Result.Verified ||
			old.Result.Cost != 3 || old.Result.Patch != "module patch();\nendmodule\n" {
			t.Fatalf("boot %d: job-old = %+v, want done with its result", boot, old)
		}
		for id, wasState := range map[string]State{"job-queued": StateQueued, "job-running": StateRunning} {
			st, err := c.Status(ctx, id)
			if err != nil {
				t.Fatalf("boot %d: %s not restored: %v", boot, id, err)
			}
			if st.State != StateFailed || !st.Recovered {
				t.Fatalf("boot %d: %s = %+v, want failed+recovered", boot, id, st)
			}
			if !strings.Contains(st.Error, "recovered") || !strings.Contains(st.Error, string(wasState)) {
				t.Fatalf("boot %d: %s error = %q, want recovered-while-%s", boot, id, st.Error, wasState)
			}
			if boot == 1 {
				wantErr[id] = st.Error
				if rec, ok := readJobFile(t, dir, id); !ok || rec.Status.State != StateFailed || !rec.Status.Recovered {
					t.Fatalf("%s file = %+v (present %v), want rewritten failed+recovered", id, rec.Status, ok)
				}
			} else if st.Error != wantErr[id] {
				t.Fatalf("second boot: %s error = %q, want %q", id, st.Error, wantErr[id])
			}
		}
		s.Drain(0)
	}
}

// TestPersistTornTail flips a byte in one finished job's file and
// leaves a temp file behind (a write a crash cut short before its
// rename). The next boot skips and counts the damaged file, deletes
// the temp file, restores the intact job, and keeps serving.
func TestPersistTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheEntries: 16, DataDir: dir}

	s1, c1 := newTestServer(t, cfg)
	ctx := context.Background()
	var ids []string
	for i := 0; i < 2; i++ {
		req := testRequest()
		req.Options.TimeoutSec = float64(60 + i) // distinct digests: no dedup
		st, err := c1.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c1.Wait(ctx, st.ID, 5*time.Millisecond); err != nil || st.State != StateDone {
			t.Fatalf("run: %+v, err %v", st, err)
		}
		ids = append(ids, st.ID)
	}
	s1.Drain(0)

	damaged := filepath.Join(dir, ids[0]+".json")
	b, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(damaged, b, 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, ids[1]+".json.tmp123")
	if err := os.WriteFile(tmp, []byte(`{"record":`), 0o600); err != nil {
		t.Fatal(err)
	}

	_, c2 := newTestServer(t, cfg)
	if n := metricValue(t, fetchMetrics(t, c2), "ecod_persist_skipped_total"); n != 1 {
		t.Fatalf("skipped metric = %v, want 1", n)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("leftover temp file not removed: %v", err)
	}
	if _, err := c2.Status(ctx, ids[0]); err == nil {
		t.Fatal("the damaged job was replayed")
	}
	// The intact job survives and the daemon still serves new work.
	if got, err := c2.Status(ctx, ids[1]); err != nil || got.State != StateDone {
		t.Fatalf("after damaged file: %+v, err %v", got, err)
	}
	st2, err := c2.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = c2.Wait(ctx, st2.ID, 5*time.Millisecond); err != nil || st2.State != StateDone {
		t.Fatalf("submit after damaged file: %+v, err %v", st2, err)
	}
}

// TestPersistRankGuard pins the write order of one job's file: a late
// queued write or start never demotes a terminal file, and once
// eviction deleted the file no later write recreates it. Through the
// daemon, a store bounded at two jobs keeps exactly two files, and a
// restart restores those two.
func TestPersistRankGuard(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, MaxJobs: 2, DataDir: dir}
	s, c := newTestServer(t, cfg)

	j := s.store.NewJob("guard", nil, eco.Options{})
	s.store.PersistQueued(j)
	if rec, ok := readJobFile(t, dir, j.ID); !ok || rec.Status.State != StateQueued {
		t.Fatalf("queued job file = %+v (present %v)", rec.Status, ok)
	}
	s.store.Finish(j, StateDone, "", &JobResult{Schema: ResultSchema, Patch: "module patch();\nendmodule\n"}, nil)
	s.store.PersistQueued(j)
	if s.store.Start(j, func() {}) {
		t.Fatal("a finished job started")
	}
	if rec, ok := readJobFile(t, dir, j.ID); !ok || rec.Status.State != StateDone || rec.Status.Result == nil {
		t.Fatalf("after late writes the file holds %+v (present %v), want done with its result", rec.Status, ok)
	}
	s.persist.evict([]*Job{j})
	s.store.PersistQueued(j)
	s.store.Finish(j, StateFailed, "again", nil, nil)
	if _, ok := readJobFile(t, dir, j.ID); ok {
		t.Fatal("a write after eviction recreated the job file")
	}

	ctx := context.Background()
	var ids []string
	for i := 0; i < 3; i++ {
		req := testRequest()
		req.Options.TimeoutSec = float64(60 + i)
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil || st.State != StateDone {
			t.Fatalf("job %d: %+v, err %v", i, st, err)
		}
		ids = append(ids, st.ID)
	}
	s.Drain(0)
	if _, ok := readJobFile(t, dir, ids[0]); ok {
		t.Fatal("the evicted job's file is still on disk")
	}
	for _, id := range ids[1:] {
		if rec, ok := readJobFile(t, dir, id); !ok || rec.Status.State != StateDone {
			t.Fatalf("job %s file = %+v (present %v), want done", id, rec.Status, ok)
		}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(0)
	if got := srv.store.List("", 0); len(got) != 2 || got[0].ID != ids[1] || got[1].ID != ids[2] {
		t.Fatalf("restored jobs = %+v, want [%s %s]", got, ids[1], ids[2])
	}
}

// TestPersistConcurrentFinishes races many instant solves on several
// workers against their submit goroutines' queued writes: every
// terminal file must be written before its job is visible as finished,
// every job file must end terminal, and a restart must recover none of
// them.
func TestPersistConcurrentFinishes(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, QueueCap: 64, DataDir: dir}
	s, c := newTestServer(t, cfg)
	s.solve = func(ctx context.Context, inst *eco.Instance, opt eco.Options) (*eco.Result, error) {
		return &eco.Result{Feasible: true, Verified: true}, nil
	}
	s.store.mu.Lock()
	save := s.store.persist
	s.store.persist = func(j *Job, status JobStatus) {
		if seen, ok := s.store.Get(j.ID); ok && seen.State.Terminal() {
			t.Errorf("job %s was visible as %s before its file was written", j.ID, seen.State)
		}
		save(j, status)
	}
	s.store.mu.Unlock()
	ctx := context.Background()
	const n = 32
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.Submit(ctx, testRequest())
			if err != nil {
				t.Error(err)
				return
			}
			if st, err = c.Wait(ctx, st.ID, time.Millisecond); err != nil || st.State != StateDone {
				t.Errorf("job %d: %+v, err %v", i, st, err)
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Every job was reported done, so its terminal file has landed.
	s.Drain(0)
	for _, id := range ids {
		if rec, ok := readJobFile(t, dir, id); !ok || rec.Status.State != StateDone {
			t.Fatalf("job %s file = %+v (present %v), want done", id, rec.Status, ok)
		}
	}
	_, c2 := newTestServer(t, cfg)
	jobs, err := c2.List(ctx, string(StateDone), 0)
	if err != nil || len(jobs) != n {
		t.Fatalf("restored %d done jobs, err %v; want %d", len(jobs), err, n)
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

// TestPersistMetricsSurface asserts the persistence metric families
// render.
func TestPersistMetricsSurface(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, CacheEntries: 4, DataDir: t.TempDir()})
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ecod_persist_records_total",
		"ecod_persist_replayed_total",
		"ecod_persist_skipped_total",
		"ecod_uptime_seconds",
		"ecod_build_info{go_version=",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %s", want)
		}
	}
}

// FuzzJobFileDecode feeds arbitrary bytes to the job-file decoder: it
// never panics, and anything it accepts passes the checksum, names a
// job, and survives a re-encode unchanged.
func FuzzJobFileDecode(f *testing.F) {
	now := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	for _, rec := range []jobRecord{
		{Status: JobStatus{ID: "q", State: StateQueued, QueuedAt: now}},
		{Digest: "00ff", Status: JobStatus{ID: "d", Name: "n", State: StateDone, QueuedAt: now,
			Result: &JobResult{Schema: ResultSchema, Patch: "module patch();\nendmodule\n"}}},
	} {
		b, err := encodeJobFile(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/2] ^= 0x01
		f.Add(flipped)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"record":null,"crc32c":0}`))
	f.Add([]byte(`{"record":{"status":{"id":"x"}},"crc32c":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeJobFile(data)
		if err != nil {
			return
		}
		var env jobFile
		if json.Unmarshal(data, &env) != nil || crc32.Checksum(env.Record, crcTable) != env.CRC {
			t.Fatalf("accepted a file that fails its checksum: %q", data)
		}
		if rec.Status.ID == "" {
			t.Fatalf("accepted a record without a job id: %q", data)
		}
		b, err := encodeJobFile(rec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeJobFile(b)
		if err != nil || again.Status.ID != rec.Status.ID || again.Status.State != rec.Status.State || again.Digest != rec.Digest {
			t.Fatalf("re-encode of %+v decoded as %+v, err %v", rec, again, err)
		}
	})
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
