package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// testOpts builds small-segment, no-fsync options for fast tests.
func testOpts(dir string) Options {
	return Options{Dir: dir, NoSync: true, CompactMinRecords: 1}
}

type replayed struct {
	typ     RecordType
	payload []byte
}

func openCollect(t *testing.T, opts Options) (*Log, []replayed) {
	t.Helper()
	var got []replayed
	l, err := Open(opts, func(typ RecordType, payload []byte) {
		got = append(got, replayed{typ, append([]byte(nil), payload...)})
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, got := openCollect(t, testOpts(dir))
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	var want []replayed
	for i := 0; i < 100; i++ {
		payload := []byte(fmt.Sprintf("record-%03d", i))
		typ := RecordType(1 + i%2)
		want = append(want, replayed{typ, payload})
		var err error
		if i%3 == 0 {
			err = l.AppendAsync(typ, payload)
		} else {
			err = l.Append(typ, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Records != 100 || st.Live != 100 {
		t.Fatalf("stats = %+v, want 100 records live", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got = openCollect(t, testOpts(dir))
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].typ != want[i].typ || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("record %d: got (%d, %q), want (%d, %q)",
				i, got[i].typ, got[i].payload, want[i].typ, want[i].payload)
		}
	}
}

func TestSegmentRotationAndOrder(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.MaxSegmentBytes = 64 // a few records per segment
	l, _ := openCollect(t, opts)
	for i := 0; i < 50; i++ {
		if err := l.Append(RecJob, []byte(fmt.Sprintf("r%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation, stats %+v", st)
	}
	l.Close()

	_, got := openCollect(t, opts)
	if len(got) != 50 {
		t.Fatalf("replayed %d records, want 50", len(got))
	}
	for i, r := range got {
		if want := fmt.Sprintf("r%02d", i); string(r.payload) != want {
			t.Fatalf("record %d = %q, want %q (segment order broken)", i, r.payload, want)
		}
	}
}

func TestTornTailRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated-header", func(b []byte) []byte { return b[:len(b)-len(b)%7-4] }},
		{"truncated-body", func(b []byte) []byte { return b[:len(b)-3] }},
		{"bit-flip-last", func(b []byte) []byte {
			b[len(b)-1] ^= 0x40
			return b
		}},
		{"garbage-appended", func(b []byte) []byte {
			return append(b, 0xff, 0x13, 0x37, 0x00, 0x00, 0x00, 0x00, 0x01)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openCollect(t, testOpts(dir))
			for i := 0; i < 10; i++ {
				if err := l.Append(RecJob, []byte(fmt.Sprintf("keep-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()

			path := filepath.Join(dir, segName(1))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(b), 0o644); err != nil {
				t.Fatal(err)
			}

			l2, got := openCollect(t, testOpts(dir))
			if st := l2.Stats(); st.TornTail != 1 {
				t.Fatalf("torn_tail = %d, want 1 (%s)", st.TornTail, tc.name)
			}
			// The valid prefix replays; every replayed record is intact.
			for i, r := range got {
				if want := fmt.Sprintf("keep-%d", i); string(r.payload) != want {
					t.Fatalf("record %d = %q, want %q", i, r.payload, want)
				}
			}
			if len(got) == 10 && tc.name != "garbage-appended" {
				t.Fatalf("mutation %s did not drop any record", tc.name)
			}
			// The log keeps serving: append after recovery, reopen, and
			// the tail is the new record.
			if err := l2.Append(RecJob, []byte("after-recovery")); err != nil {
				t.Fatal(err)
			}
			l2.Close()
			_, got3 := openCollect(t, testOpts(dir))
			if len(got3) != len(got)+1 || string(got3[len(got3)-1].payload) != "after-recovery" {
				t.Fatalf("append after torn-tail recovery lost: %d records", len(got3))
			}
		})
	}
}

// TestCrashPrefixAlwaysReplayable simulates a kill -9 at every byte
// boundary of a log: any prefix must recover without error and replay
// only intact records, in order.
func TestCrashPrefixAlwaysReplayable(t *testing.T) {
	dir := t.TempDir()
	l, _ := openCollect(t, testOpts(dir))
	for i := 0; i < 8; i++ {
		if err := l.Append(RecSolve, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	full, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		var n int
		_, _, _, err := scanRecords(bytes.NewReader(full[:cut]), func(typ RecordType, payload []byte) {
			if want := fmt.Sprintf("payload-%d", n); string(payload) != want {
				t.Fatalf("cut %d: record %d = %q, want %q", cut, n, payload, want)
			}
			n++
		})
		if err != nil {
			t.Fatalf("cut %d: scan error %v", cut, err)
		}
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	// Real fsyncs so group commit actually batches.
	l, _ := openCollect(t, Options{Dir: dir, CompactMinRecords: 1 << 30})
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(RecJob, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Records != writers*per {
		t.Fatalf("records = %d, want %d", st.Records, writers*per)
	}
	if st.FsyncBatches == 0 {
		t.Fatal("no fsync batches recorded")
	}
	// Group commit's whole point: far fewer fsyncs than records under
	// concurrency. With 8 writers racing, batching must kick in; allow
	// generous slack for a slow machine.
	if st.FsyncBatches >= st.Records {
		t.Fatalf("fsync batches %d >= records %d: group commit not batching", st.FsyncBatches, st.Records)
	}
	l.Close()
	_, got := openCollect(t, testOpts(dir))
	if len(got) != writers*per {
		t.Fatalf("replayed %d, want %d", len(got), writers*per)
	}
}

func TestCompactionRewritesLiveState(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	// Disable the ratio trigger so the explicit CompactNow below is the
	// only compaction (a racing background one would steal its slot).
	opts.CompactMinRecords = 1 << 30
	l, _ := openCollect(t, opts)

	// Live state: a mutable map the snapshot callback serializes.
	var mu sync.Mutex
	live := map[string]string{}
	l.SetSnapshot(func(w *SnapshotWriter) error {
		mu.Lock()
		defer mu.Unlock()
		for k, v := range live {
			if err := w.Write(RecJob, []byte(k+"="+v)); err != nil {
				return err
			}
		}
		return nil
	})

	// 50 keys, each overwritten 4 times: 200 records, 150 garbage.
	for round := 0; round < 4; round++ {
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("k%02d", i)
			v := fmt.Sprintf("v%d", round)
			mu.Lock()
			_, existed := live[k]
			live[k] = v
			mu.Unlock()
			if err := l.Append(RecJob, []byte(k+"="+v)); err != nil {
				t.Fatal(err)
			}
			if existed {
				l.MarkGarbage(1)
			}
		}
	}
	if err := l.CompactNow(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	if st.Live != 50 || st.Garbage != 0 {
		t.Fatalf("after compaction stats = %+v, want 50 live / 0 garbage", st)
	}
	// Appends after compaction land in the tail and replay after the
	// snapshot.
	mu.Lock()
	live["k00"] = "tail"
	mu.Unlock()
	if err := l.Append(RecJob, []byte("k00=tail")); err != nil {
		t.Fatal(err)
	}
	l.MarkGarbage(1)
	l.Close()

	_, got := openCollect(t, opts)
	state := map[string]string{}
	for _, r := range got {
		k, v, _ := bytes.Cut(r.payload, []byte("="))
		state[string(k)] = string(v)
	}
	if len(state) != 50 {
		t.Fatalf("replayed state has %d keys, want 50", len(state))
	}
	for k, v := range state {
		want := "v3"
		if k == "k00" {
			want = "tail"
		}
		if v != want {
			t.Fatalf("key %s = %q, want %q", k, v, want)
		}
	}
	if len(got) >= 200 {
		t.Fatalf("compaction did not shrink the log: %d records replayed", len(got))
	}
}

func TestBackgroundCompactionTriggers(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.CompactRatio = 0.5
	opts.CompactMinRecords = 10
	l, _ := openCollect(t, opts)
	l.SetSnapshot(func(w *SnapshotWriter) error {
		return w.Write(RecJob, []byte("live"))
	})
	for i := 0; i < 40; i++ {
		if err := l.Append(RecJob, []byte("x")); err != nil {
			t.Fatal(err)
		}
		l.MarkGarbage(1) // everything is immediately garbage
	}
	// The trigger spawns a goroutine; give it time to run before Close
	// flips the closed flag (which aborts a not-yet-started compaction).
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Compactions == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	l.Close()
	if st := l.Stats(); st.Compactions == 0 {
		t.Fatalf("background compaction never triggered: %+v", st)
	}
}

func TestAppendAfterClose(t *testing.T) {
	l, _ := openCollect(t, testOpts(t.TempDir()))
	l.Close()
	if err := l.Append(RecJob, []byte("x")); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
