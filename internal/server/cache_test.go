package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ecopatch/internal/eco"
)

// metricValue extracts one un-labeled counter/gauge value from a
// Prometheus exposition.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found", name)
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDedupServedFromDoneCache: an identical second submission is
// served instantly from the completed result, without a second solve
// and without double-counting the first solve's stats in /metrics.
func TestDedupServedFromDoneCache(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 8, CacheEntries: 16})
	ctx := context.Background()

	first, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	first, err = c.Wait(ctx, first.ID, 2*time.Millisecond)
	if err != nil || first.State != StateDone {
		t.Fatalf("first job: %v %+v", err, first)
	}
	// The terminal state is visible before the store's finish hook
	// folds the job into /metrics and completes the result cache, in
	// that order: wait for both before reading and resubmitting.
	var afterFirst string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if afterFirst, err = c.Metrics(ctx); err != nil {
			t.Fatal(err)
		}
		s.rcache.mu.Lock()
		cached := len(s.rcache.done)
		s.rcache.mu.Unlock()
		if strings.Contains(afterFirst, `ecod_jobs_finished_total{state="done"} 1`) && cached == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job not folded into /metrics and the result cache (cached %d)", cached)
		}
	}
	satCalls := metricValue(t, afterFirst, "ecod_sat_solve_calls_total")
	if satCalls == 0 {
		t.Fatal("first solve aggregated no SAT calls")
	}

	second, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone {
		t.Fatalf("dedup submission not served instantly: %+v", second)
	}
	if second.DedupOf != first.ID {
		t.Fatalf("dedup_of = %q, want %q", second.DedupOf, first.ID)
	}
	if second.Result == nil || !second.Result.Verified || second.Result.Patch != first.Result.Patch {
		t.Fatalf("dedup result differs from original: %+v", second.Result)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "ecod_cache_hits_total"); got != 1 {
		t.Fatalf("ecod_cache_hits_total = %d, want 1", got)
	}
	// The served copy must not re-aggregate the original's counters.
	if got := metricValue(t, text, "ecod_sat_solve_calls_total"); got != satCalls {
		t.Fatalf("stats double-counted: sat calls %d -> %d", satCalls, got)
	}
	if !strings.Contains(text, `ecod_jobs_finished_total{state="done"} 2`) {
		t.Error("both jobs should count as done")
	}
}

// TestDedupAttachesToInflight: a duplicate arriving while the original
// is still solving rides along instead of solving again.
func TestDedupAttachesToInflight(t *testing.T) {
	started := make(chan string, 2)
	release := make(chan struct{})
	var solves atomic.Int64
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 8, CacheEntries: 16})
	s.solve = func(ctx context.Context, inst *eco.Instance, opt eco.Options) (*eco.Result, error) {
		solves.Add(1)
		started <- inst.Name
		select {
		case <-ctx.Done():
			return &eco.Result{TimedOut: true}, nil
		case <-release:
			return &eco.Result{Feasible: true, Verified: true}, nil
		}
	}
	ctx := context.Background()

	first, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	<-started // original picked up and in flight

	second, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateQueued {
		t.Fatalf("attached duplicate state = %s, want queued", second.State)
	}
	if second.DedupOf != first.ID {
		t.Fatalf("dedup_of = %q, want %q", second.DedupOf, first.ID)
	}

	close(release)
	st, err := c.Wait(ctx, second.ID, 2*time.Millisecond)
	if err != nil || st.State != StateDone {
		t.Fatalf("attached duplicate: %v %+v", err, st)
	}
	if st.Result == nil || !st.Result.Verified {
		t.Fatalf("attached duplicate got no result: %+v", st.Result)
	}
	if n := solves.Load(); n != 1 {
		t.Fatalf("solve ran %d times, want 1", n)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "ecod_cache_attached_total"); got != 1 {
		t.Fatalf("ecod_cache_attached_total = %d, want 1", got)
	}
}

// TestCancelledAttachedWaiterKeepsCancellation: a duplicate cancelled
// while waiting must stay cancelled when its parent finishes.
func TestCancelledAttachedWaiterKeepsCancellation(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 8, CacheEntries: 16})
	s.solve = blockingSolve(started, release)
	ctx := context.Background()

	first, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	second, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, second.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	if st, err := c.Wait(ctx, first.ID, 2*time.Millisecond); err != nil || st.State != StateDone {
		t.Fatalf("parent: %v %+v", err, st)
	}
	st, err := c.Status(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("cancelled waiter resurrected to %s", st.State)
	}
}

// TestShedJobNotVisibleOrDoubleCounted pins the admission-race fix: a
// shed submission is never registered, so it cannot be cancelled into
// a phantom terminal transition, and the finished-by-state counters
// stay consistent with the jobs that were actually admitted.
func TestShedJobNotVisibleOrDoubleCounted(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	s.solve = blockingSolve(started, release)
	ctx := context.Background()

	// Fill the single worker and the single queue slot.
	if _, err := c.Submit(ctx, testRequest()); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := c.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}

	// Third submission sheds with 429; its ID must not exist.
	_, err = c.Submit(ctx, testRequest())
	if !IsShed(err) {
		t.Fatalf("expected shed, got %v", err)
	}
	if jobs, err := c.List(ctx, "", 0); err != nil || len(jobs) != 2 {
		t.Fatalf("list after shed: %v, %d jobs (want 2)", err, len(jobs))
	}

	close(release)
	for _, id := range []string{queued.ID} {
		if st, err := c.Wait(ctx, id, 2*time.Millisecond); err != nil || st.State != StateDone {
			t.Fatalf("job %s: %v %+v", id, err, st)
		}
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "ecod_jobs_shed_total"); got != 1 {
		t.Fatalf("shed total = %d", got)
	}
	if got := metricValue(t, text, "ecod_jobs_submitted_total"); got != 2 {
		t.Fatalf("submitted total = %d, want 2 (shed not counted)", got)
	}
	// Terminal transitions must equal admitted jobs: 2 done, nothing
	// else (no phantom cancellation of the shed submission).
	if !strings.Contains(text, `ecod_jobs_finished_total{state="done"} 2`) ||
		!strings.Contains(text, `ecod_jobs_finished_total{state="cancelled"} 0`) {
		t.Errorf("finished-by-state inconsistent:\n%s", text)
	}
}

// TestQueuedCancelSingleTerminalTransition: cancelling a job the
// worker is about to dequeue yields exactly one terminal transition
// and no stats aggregation for the never-run job.
func TestQueuedCancelSingleTerminalTransition(t *testing.T) {
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
	// Cancel while queued; the worker dequeues it after release and
	// must skip it without a second transition.
	if st, err := c.Cancel(ctx, queued.ID); err != nil || st.State != StateCancelled {
		t.Fatalf("cancel: %v %+v", err, st)
	}
	close(release)
	waitFor(t, func() bool {
		text, err := c.Metrics(ctx)
		return err == nil && strings.Contains(text, `ecod_jobs_finished_total{state="done"} 1`)
	})
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `ecod_jobs_finished_total{state="cancelled"} 1`) {
		t.Errorf("cancelled count != 1:\n%s", text)
	}
}

// TestClientRetriesShedWithRetryAfter: the client retries 429s,
// honoring the Retry-After header over the JSON hint, and gives up
// after MaxRetries.
func TestClientRetriesShedWithRetryAfter(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n < 3 {
			w.Header().Set("Retry-After", "0")
			writeJSON(w, http.StatusTooManyRequests, apiError{Error: "queue full", RetryAfterSec: 99})
			return
		}
		writeJSON(w, http.StatusCreated, JobStatus{ID: "ok", State: StateQueued})
	}))
	defer hs.Close()

	c := &Client{Base: hs.URL, HTTP: hs.Client(), MaxRetries: 3, RetryBackoff: time.Millisecond}
	st, err := c.Submit(context.Background(), JobRequest{})
	if err != nil || st.ID != "ok" {
		t.Fatalf("submit = %+v, %v", st, err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3", n)
	}

	// Exhausted retries surface the shed error.
	calls.Store(-100) // always 429 for the next 100 calls
	c.MaxRetries = 2
	_, err = c.Submit(context.Background(), JobRequest{})
	if !IsShed(err) {
		t.Fatalf("expected shed after retries exhausted, got %v", err)
	}
	if n := calls.Load(); n != -97 {
		t.Fatalf("server saw %d calls, want 3 (1 + 2 retries)", 100+n)
	}
}

// TestParseRetryAfter covers the RFC 9110 forms and the clamp.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"garbage", 0, false},
		{"-5", 0, false},
		{"0", 0, true},
		{"2", 2 * time.Second, true},
		{"1.5", 1500 * time.Millisecond, true},
		{"3600", maxRetryAfter, true}, // clamped
		{time.Now().Add(2 * time.Hour).UTC().Format(http.TimeFormat), maxRetryAfter, true},
		{time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat), 0, true}, // past date -> 0
	}
	for _, tc := range cases {
		got, ok := parseRetryAfter(tc.in)
		if ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) ok = %v, want %v", tc.in, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		// HTTP-date results carry sub-second skew from time.Until.
		if diff := got - tc.want; diff < -2*time.Second || diff > 2*time.Second {
			t.Errorf("parseRetryAfter(%q) = %v, want ~%v", tc.in, got, tc.want)
		}
	}
}
