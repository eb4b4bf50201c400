package server

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ecopatch/internal/eco"
)

// Tiny feasible instance: one free target point whose rectification
// is an OR of the primary inputs.
const implSrc = `
module m (a, b, f);
input a, b;
output f;
and (f, a, t_0);
endmodule`

const specSrc = `
module m (a, b, f);
input a, b;
output f;
wire w;
or (w, a, b);
and (f, a, w);
endmodule`

func testRequest() JobRequest {
	return JobRequest{Name: "tiny", Impl: implSrc, Spec: specSrc}
}

// newTestServer builds a server plus an HTTP front end and hands back
// a client. Cleanup drains with no grace so tests never leak workers.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain(0)
		hs.Close()
	})
	return s, &Client{Base: hs.URL, HTTP: hs.Client()}
}

// blockingSolve returns a solve stub that signals pickup on started
// and blocks until release closes or the job is cancelled.
func blockingSolve(started chan<- string, release <-chan struct{}) func(context.Context, *eco.Instance, eco.Options) (*eco.Result, error) {
	return func(ctx context.Context, inst *eco.Instance, opt eco.Options) (*eco.Result, error) {
		if started != nil {
			started <- inst.Name
		}
		select {
		case <-ctx.Done():
			return &eco.Result{TimedOut: true}, nil
		case <-release:
			return &eco.Result{Feasible: true, Verified: true}, nil
		}
	}
}

func TestEndToEndRealSolve(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 8, DataDir: dir})
	ctx := context.Background()

	st, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State.Terminal() {
		t.Fatalf("unexpected initial status %+v", st)
	}
	st, err = c.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", st.State, st.Error)
	}
	if st.Result == nil || !st.Result.Verified {
		t.Fatalf("result not verified: %+v", st.Result)
	}
	if st.Result.Schema != ResultSchema {
		t.Fatalf("schema = %q", st.Result.Schema)
	}
	if st.Result.SATCalls == 0 {
		t.Fatal("expected nonzero SAT calls from a real solve")
	}
	if !strings.Contains(st.Result.Patch, "module") {
		t.Fatalf("patch netlist missing: %q", st.Result.Patch)
	}

	// The job file, result included, is written before the job is
	// reported done.
	rec, ok := readJobFile(t, dir, st.ID)
	if onDisk := rec.Status; !ok || onDisk.State != StateDone || onDisk.Result == nil || !onDisk.Result.Verified || onDisk.Result.Patch != st.Result.Patch {
		t.Fatalf("job file disagrees (present %v): %+v", ok, onDisk)
	}

	// The metrics surface aggregates the solver counters.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`ecod_jobs_finished_total{state="done"} 1`,
		"ecod_jobs_submitted_total 1",
		"ecod_queue_capacity 8",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, "ecod_sat_solve_calls_total 0\n") {
		t.Error("solver counters not aggregated into metrics")
	}
	if err := c.Healthz(ctx); err != nil {
		t.Errorf("healthz: %v", err)
	}
	_ = s
}

// fillDistinct sets every integer field of *st, the nested sat.Stats
// included, to a distinct positive value, and maps each value as
// /metrics renders it (time.Duration fields in seconds) to its field.
func fillDistinct(t *testing.T, st *eco.Stats) map[float64]string {
	leaves := map[float64]string{}
	n := int64(0)
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Int, reflect.Int64:
			n++
			v.SetInt(n)
			if v.Type() == reflect.TypeOf(time.Duration(0)) {
				leaves[time.Duration(n).Seconds()] = path
			} else {
				leaves[float64(n)] = path
			}
		default:
			t.Fatalf("unhandled eco.Stats field kind %s", v.Kind())
		}
	}
	walk("Stats", reflect.ValueOf(st).Elem())
	return leaves
}

// TestStatsMetricsSurface pins /metrics to the engine's own Stats. The
// one solve sets a distinct value in every eco.Stats field, and each
// ecod_eco_*, ecod_sim_* and ecod_sat_* counter must equal one of
// those values, once: the dedup waiter, the cache hit and the job
// cancelled while queued add nothing. Every field must be matched by
// exactly one counter, so a new field without a counter fails.
func TestStatsMetricsSurface(t *testing.T) {
	var stats eco.Stats
	leaves := fillDistinct(t, &stats)
	started := make(chan string, 1)
	release := make(chan struct{})
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 8, CacheEntries: 16})
	s.solve = func(ctx context.Context, inst *eco.Instance, opt eco.Options) (*eco.Result, error) {
		started <- inst.Name
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &eco.Result{Feasible: true, Verified: true, Stats: stats}, nil
	}
	ctx := context.Background()
	submit := func(req JobRequest) JobStatus {
		t.Helper()
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	first := submit(testRequest())
	<-started
	waiter := submit(testRequest())
	if waiter.DedupOf != first.ID {
		t.Fatalf("duplicate did not attach: %+v", waiter)
	}
	other := testRequest()
	other.Options.ForceStructural = true
	queued := submit(other)
	if st, err := c.Cancel(ctx, queued.ID); err != nil || st.State != StateCancelled {
		t.Fatalf("cancel queued job: %v %+v", err, st)
	}
	close(release)
	// The waiter finishes only after the first job's result is cached.
	if st, err := c.Wait(ctx, waiter.ID, 2*time.Millisecond); err != nil || st.State != StateDone {
		t.Fatalf("attached duplicate: %v %+v", err, st)
	}
	if hit := submit(testRequest()); hit.State != StateDone || hit.DedupOf != first.ID {
		t.Fatalf("identical job not served from the result cache: %+v", hit)
	}
	var text string
	waitFor(t, func() bool {
		var err error
		text, err = c.Metrics(ctx)
		return err == nil && strings.Contains(text, `ecod_jobs_finished_total{state="done"} 3`)
	})

	matched := map[string]string{} // eco.Stats field -> counter
	for _, line := range strings.Split(text, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || !(strings.HasPrefix(name, "ecod_eco_") || strings.HasPrefix(name, "ecod_sim_") || strings.HasPrefix(name, "ecod_sat_")) {
			continue
		}
		got, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Errorf("%s = %q: %v", name, value, err)
			continue
		}
		field, ok := leaves[got]
		switch {
		case !ok:
			t.Errorf("%s = %s matches no eco.Stats field", name, value)
		case matched[field] != "":
			t.Errorf("%s and %s both report %s", matched[field], name, field)
		default:
			matched[field] = name
		}
	}
	for _, field := range leaves {
		if matched[field] == "" {
			t.Errorf("%s has no /metrics counter", field)
		}
	}
}

func TestQueueFullSheds429(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	s.solve = blockingSolve(started, release)
	ctx := context.Background()

	// First job occupies the sole worker...
	first, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// ...second fills the queue...
	second, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	// ...third must be shed with 429 + Retry-After.
	_, err = c.Submit(ctx, testRequest())
	if !IsShed(err) {
		t.Fatalf("want shed error, got %v", err)
	}
	var ae *APIError
	if !asAPIError(err, &ae) || ae.RetryAfter <= 0 {
		t.Fatalf("want Retry-After on shed, got %+v", ae)
	}
	// The shed job must not linger in the store.
	if jobs, err := c.List(ctx, "", 0); err != nil || len(jobs) != 2 {
		t.Fatalf("list = %v jobs, err %v; want 2", len(jobs), err)
	}

	close(release)
	for _, id := range []string{first.ID, second.ID} {
		st, err := c.Wait(ctx, id, 5*time.Millisecond)
		if err != nil || st.State != StateDone {
			t.Fatalf("job %s: state %s err %v", id, st.State, err)
		}
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "ecod_jobs_shed_total 1") {
		t.Error("shed not counted")
	}
}

func asAPIError(err error, out **APIError) bool {
	ae, ok := err.(*APIError)
	if ok {
		*out = ae
	}
	return ok
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan string, 1)
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	s.solve = blockingSolve(started, nil) // only cancellation releases it
	ctx := context.Background()

	st, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	got, err := c.Cancel(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Terminal() && got.State != StateCancelled {
		t.Fatalf("cancel returned %s", got.State)
	}
	got, err = c.Wait(ctx, st.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}
	if got.Error != "job cancelled" {
		t.Fatalf("error = %q", got.Error)
	}
	// Partial (TimedOut) results from a cancelled solve are retained.
	if got.Result == nil || !got.Result.TimedOut {
		t.Fatalf("expected partial result, got %+v", got.Result)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	s.solve = blockingSolve(started, release)
	ctx := context.Background()

	if _, err := c.Submit(ctx, testRequest()); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("queued cancel = %s, want cancelled immediately", got.State)
	}
	close(release)
	// The worker must skip the cancelled job, not run it.
	select {
	case name := <-started:
		t.Fatalf("cancelled job %q was started", name)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestGracefulDrainFinishesInFlight(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	s.solve = blockingSolve(started, release)
	ctx := context.Background()

	running, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() {
		s.Drain(time.Minute) // generous grace: in-flight job must finish naturally
		close(drained)
	}()
	// Drain is underway once healthz flips to draining.
	waitFor(t, func() bool { return c.Healthz(ctx) != nil })

	// New submissions are refused while draining.
	if _, err := c.Submit(ctx, testRequest()); err == nil || IsShed(err) {
		t.Fatalf("want 503 during drain, got %v", err)
	}

	close(release)
	<-drained

	st, err := c.Status(ctx, running.ID)
	if err != nil || st.State != StateDone {
		t.Fatalf("in-flight job: state %s err %v, want done", st.State, err)
	}
	st, err = c.Status(ctx, queued.ID)
	if err != nil || st.State != StateCancelled {
		t.Fatalf("queued job: state %s err %v, want cancelled", st.State, err)
	}
	if !strings.Contains(mustMetrics(t, c), "ecod_draining 1") {
		t.Error("draining gauge not set")
	}
}

func TestDrainGraceExpiryInterruptsSolves(t *testing.T) {
	started := make(chan string, 1)
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	s.solve = blockingSolve(started, nil) // never finishes on its own
	ctx := context.Background()

	st, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s.Drain(5 * time.Millisecond) // grace expires, solve is interrupted

	got, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled after grace expiry", got.State)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	ctx := context.Background()

	cases := []struct {
		name string
		req  JobRequest
	}{
		{"empty impl", JobRequest{Spec: specSrc}},
		{"bad netlist", JobRequest{Impl: "module garbage", Spec: specSrc}},
		{"bad support", func() JobRequest {
			r := testRequest()
			r.Options.Support = "quantum"
			return r
		}()},
		{"negative timeout", func() JobRequest {
			r := testRequest()
			r.Options.TimeoutSec = -1
			return r
		}()},
	}
	for _, tc := range cases {
		_, err := c.Submit(ctx, tc.req)
		var ae *APIError
		if !asAPIError(err, &ae) || ae.StatusCode != 400 {
			t.Errorf("%s: want 400, got %v", tc.name, err)
		}
	}

	if _, err := c.Status(ctx, "nope"); err == nil {
		t.Error("unknown job: want 404")
	}
	if _, err := c.Cancel(ctx, "nope"); err == nil {
		t.Error("cancel unknown job: want 404")
	}
}

// TestTimeoutClamp pins the deadline admission policy: jobs without a
// deadline get the server default, and no job exceeds MaxTimeout.
func TestTimeoutClamp(t *testing.T) {
	got := make(chan time.Duration, 2)
	s, c := newTestServer(t, Config{
		Workers: 1, QueueCap: 4,
		DefaultTimeout: 3 * time.Second,
		MaxTimeout:     5 * time.Second,
	})
	s.solve = func(ctx context.Context, inst *eco.Instance, opt eco.Options) (*eco.Result, error) {
		got <- opt.Timeout
		return &eco.Result{}, nil
	}
	ctx := context.Background()

	st, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d := <-got; d != 3*time.Second {
		t.Errorf("default timeout = %v, want 3s", d)
	}

	req := testRequest()
	req.Options.TimeoutSec = 3600
	st, err = c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d := <-got; d != 5*time.Second {
		t.Errorf("clamped timeout = %v, want 5s", d)
	}
}

func mustMetrics(t *testing.T, c *Client) string {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return text
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
