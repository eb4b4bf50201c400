package eco

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"ecopatch/internal/cache"
)

// snapshotResult flattens everything a cache hit could plausibly
// corrupt: verdicts, costs, patch structure, and the synthesized
// netlist text.
func snapshotResult(res *Result) string {
	return fmt.Sprintf("feasible=%v verified=%v cost=%d gates=%d patches=%+v netlist:\n%s",
		res.Feasible, res.Verified, res.TotalCost, res.TotalGates, res.Patches, res.Patch)
}

// TestCacheDeterminism pins the cache contract: a run with an empty
// cache, a run reusing a warm cache, and a run with no cache at all are
// bit-for-bit identical — cache hits change wall clock only, never
// verdicts, costs, or netlists.
func TestCacheDeterminism(t *testing.T) {
	for name, tc := range parallelCases(t) {
		t.Run(name, func(t *testing.T) {
			base := tc.opt
			// Reference: no cache.
			ref, err := Solve(tc.inst, base)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotResult(ref)
			if ref.Stats.CacheHits != 0 || ref.Stats.CacheMisses != 0 {
				t.Fatalf("cache counters without a cache: %+v", ref.Stats)
			}

			// Cold pass populates, warm pass reuses, third pass checks
			// the warm state is itself stable.
			c := cache.NewStore(1024)
			opt := base
			opt.Cache = c
			var warmHits int64
			for run := 0; run < 3; run++ {
				res, err := Solve(tc.inst, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got := snapshotResult(res); got != want {
					t.Fatalf("run %d diverged from uncached reference:\nwant:\n%s\ngot:\n%s", run, want, got)
				}
				if run == 0 && res.Stats.CacheMisses == 0 {
					t.Fatal("cold run recorded no cache misses")
				}
				if run > 0 {
					warmHits = res.Stats.CacheHits
					if warmHits == 0 {
						t.Fatalf("warm run %d recorded no cache hits", run)
					}
					if res.Stats.CacheCollisions != 0 {
						t.Fatalf("warm run %d screened %d collisions on a tiny corpus",
							run, res.Stats.CacheCollisions)
					}
				}
			}
			if st := c.Stats(); st.Hits == 0 {
				t.Fatalf("shared cache recorded no hits: %+v", st)
			}
		})
	}
}

// TestCacheSharedAcrossInstances runs two different instances through
// one cache: entries of one must never leak into the other.
func TestCacheSharedAcrossInstances(t *testing.T) {
	cases := parallelCases(t)
	c := cache.NewStore(1024)
	want := make(map[string]string)
	for name, tc := range cases {
		res, err := Solve(tc.inst, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = snapshotResult(res)
	}
	// Two interleaved passes over all instances against the shared
	// cache; the second pass hits entries from the first.
	for pass := 0; pass < 2; pass++ {
		for name, tc := range cases {
			opt := tc.opt
			opt.Cache = c
			res, err := Solve(tc.inst, opt)
			if err != nil {
				t.Fatalf("%s pass %d: %v", name, pass, err)
			}
			if got := snapshotResult(res); got != want[name] {
				t.Fatalf("%s pass %d diverged under shared cache:\nwant:\n%s\ngot:\n%s",
					name, pass, want[name], got)
			}
		}
	}
	if st := c.Stats(); st.Hits == 0 {
		t.Fatalf("shared cache never hit: %+v", st)
	}
}

// TestWindowKeyUsesOptionsKey pins that a window key carries the
// options through Options.AppendKey, the encoding ecod's request digest
// also hashes, right after its version tag.
func TestWindowKeyUsesOptionsKey(t *testing.T) {
	opt := DefaultOptions()
	opt.Cache = cache.NewStore(16)
	e := &engine{inst: mustInstance(t, implAndTarget, specAndOr, nil), opt: opt, ctx: context.Background(), res: &Result{}}
	if err := e.setup(); err != nil {
		t.Fatal(err)
	}
	want := opt.AppendKey([]uint64{windowKeyVersion})
	if key := e.windowKey(0, e.miter, e.miter); len(key) < len(want) || !slices.Equal(key[:len(want)], want) {
		t.Fatalf("window key prefix = %x, want %x", key[:min(len(key), len(want))], want)
	}
}
