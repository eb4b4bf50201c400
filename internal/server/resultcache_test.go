package server

import (
	"io"
	"reflect"
	"slices"
	"testing"

	"ecopatch/internal/eco"
)

// TestOptionsFingerprint flips every exported eco.Options field in
// turn and checks that the options words (eco.Options.AppendKey) and
// the request digest both see the change. Only the fields that cannot
// change a result are left out of both; Timeout is left out of
// AppendKey but must change the digest, since it decides whether a job
// completes. A new Options field fails here until it is added to
// AppendKey or to the exclusions below.
func TestOptionsFingerprint(t *testing.T) {
	notInKey := map[string]bool{"Timeout": true, "Log": true, "Parallelism": true}
	notInDigest := map[string]bool{"Log": true, "Parallelism": true}

	req := testRequest()
	base := eco.DefaultOptions()
	baseKey := base.AppendKey(nil)
	baseDigest := requestDigest(&req, base)

	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		opt := base
		v := reflect.ValueOf(&opt).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Pointer:
			v.Set(reflect.New(f.Type.Elem()))
		case reflect.Interface:
			v.Set(reflect.ValueOf(io.Discard))
		default:
			t.Fatalf("field %s: no flip for kind %s; extend the test", f.Name, v.Kind())
		}

		key := opt.AppendKey(nil)
		if len(key) != len(baseKey) {
			t.Errorf("field %s: AppendKey length %d, want fixed %d", f.Name, len(key), len(baseKey))
		}
		if keyChanged := !slices.Equal(key, baseKey); keyChanged == notInKey[f.Name] {
			t.Errorf("field %s: AppendKey changed = %v, want %v", f.Name, keyChanged, !notInKey[f.Name])
		}
		if digestChanged := requestDigest(&req, opt) != baseDigest; digestChanged == notInDigest[f.Name] {
			t.Errorf("field %s: request digest changed = %v, want %v", f.Name, digestChanged, !notInDigest[f.Name])
		}
	}

	named := req
	named.Name = "another label"
	if requestDigest(&named, base) != baseDigest {
		t.Error("job name changed the request digest")
	}
}

// TestRequestDigestGolden pins ecod-digest@v6 to fixed values, so a
// change to eco.Options or to the AppendKey word layout that would
// shift every digest shows up here: results a data directory persisted
// under one build must still dedup identical submissions under the
// next.
func TestRequestDigestGolden(t *testing.T) {
	off := false
	req := JobRequest{
		Name:    "golden",
		Impl:    "module top(a, b, y); input a, b; output y; and g(y, a, t_0); endmodule\n",
		Spec:    "module top(a, b, y); input a, b; output y; and g(y, a, b); endmodule\n",
		Weights: "a 3\nb 5\n",
	}
	for _, tc := range []struct {
		name string
		opts JobOptions
		want string
	}{
		{"defaults", JobOptions{}, "d1e0afd456893936b5f71462bcb91cf6eb8b8db4e83d0922ff9e940e5783c4ae"},
		{"tuned", JobOptions{Support: "exact", Patch: "interp", LastGasp: &off, ConfBudget: 100, TimeoutSec: 2.5},
			"2e6547652d5f7fb37e4cedd7bc19b7ba3a0248b4c6305300a4fb920de7292c24"},
	} {
		opt, err := tc.opts.Eco()
		if err != nil {
			t.Fatal(err)
		}
		if got := requestDigest(&req, opt); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestResultCacheFIFOBound pins the done cache's insertion rule for
// both of its writers, the live path (complete) and log replay
// (restore): the first insertion of a digest wins, and past max
// entries the oldest is evicted.
func TestResultCacheFIFOBound(t *testing.T) {
	rc := newResultCache(2)
	res := func(cost int) *JobResult {
		r := &JobResult{}
		r.Cost = cost
		return r
	}
	held := func(digest string) (string, int, bool) {
		e, ok := rc.done[digest]
		if !ok {
			return "", 0, false
		}
		return e.jobID, e.res.Cost, true
	}

	rc.complete("a", "j1", true, res(1))
	rc.restore("b", "j2", res(2))
	rc.complete("c", "j3", false, res(3)) // not cacheable: never held
	if _, _, ok := held("c"); ok || rc.entries() != 2 {
		t.Fatalf("uncacheable result held: entries = %d", rc.entries())
	}

	// Re-inserting a held digest through either path is a no-op.
	rc.complete("a", "j4", true, res(4))
	rc.restore("b", "j5", res(5))
	if id, cost, _ := held("a"); id != "j1" || cost != 1 {
		t.Fatalf("complete overwrote digest a: job %s cost %d", id, cost)
	}
	if id, cost, _ := held("b"); id != "j2" || cost != 2 {
		t.Fatalf("restore overwrote digest b: job %s cost %d", id, cost)
	}

	// A third digest evicts the oldest, a; a fourth evicts b.
	rc.restore("d", "j6", res(6))
	if _, _, ok := held("a"); ok {
		t.Fatal("oldest entry a survived the bound")
	}
	rc.complete("e", "j7", true, res(7))
	if _, _, ok := held("b"); ok {
		t.Fatal("entry b survived the bound")
	}
	if rc.entries() != 2 || len(rc.order) != 2 {
		t.Fatalf("entries = %d, order = %v, want 2", rc.entries(), rc.order)
	}
	for _, d := range []string{"d", "e"} {
		if _, _, ok := held(d); !ok {
			t.Fatalf("newest entry %s evicted", d)
		}
	}

	// An evicted digest can be cached again, as the newest entry.
	rc.complete("a", "j8", true, res(8))
	if id, _, ok := held("a"); !ok || id != "j8" {
		t.Fatalf("re-cached digest a = (%s, %v), want j8", id, ok)
	}
	if _, _, ok := held("d"); ok {
		t.Fatal("entry d survived the bound")
	}
}
