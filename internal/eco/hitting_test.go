package eco

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// noNodeLimit is a node limit no test search reaches.
const noNodeLimit = math.MaxInt64

// minHittingSet searches cores afresh, with floor as the only fact
// carried over from earlier iterations.
func minHittingSet(cores [][]int, costs []int64, floor int64, maxNodes int64) ([]int, bool) {
	hs := hittingSets{costs: costs, floor: floor}
	set, _, ok := hs.next(cores, maxNodes)
	return set, ok
}

// hittingCost sums the costs of a hitting set.
func hittingCost(sel []int, costs []int64) int64 {
	var c int64
	for _, j := range sel {
		c += costs[j]
	}
	return c
}

// checkGrowingCores replays a growing core sequence the way
// exactSupport does: iteration k searches the first k cores, resuming
// from the previous search. Each iteration is also searched afresh
// with only the previous optimum as the floor. Every returned set must
// equal the reference search's, not merely cost the same.
func checkGrowingCores(t *testing.T, cores [][]int, costs []int64) {
	t.Helper()
	hs := hittingSets{costs: costs}
	var floor int64
	for k := 0; k <= len(cores); k++ {
		want := minHittingSetRef(cores[:k], costs, noNodeLimit)
		resumed, _, ok := hs.next(cores[:k], noNodeLimit)
		if !ok {
			t.Fatalf("prefix %d: no hitting set reported for non-empty cores", k)
		}
		fresh, _ := minHittingSet(cores[:k], costs, floor, noNodeLimit)
		for _, got := range [][]int{resumed, fresh} {
			if !slices.Equal(got, want) {
				t.Fatalf("prefix %d: got %v (cost %d), reference %v (cost %d)\ncores %v\ncosts %v",
					k, got, hittingCost(got, costs), want, hittingCost(want, costs), cores[:k], costs)
			}
		}
		floor = hittingCost(want, costs)
	}
}

// randomGrowingCores draws costs over nVar elements and a sequence of
// non-empty cores. Costs include 0 and repeat often, so ties between
// sets of equal cost are common.
func randomGrowingCores(rng *rand.Rand, nVar, nCores int) ([][]int, []int64) {
	costs := make([]int64, nVar)
	for i := range costs {
		costs[i] = int64(rng.Intn(6))
	}
	cores := make([][]int, nCores)
	for i := range cores {
		k := 1 + rng.Intn(nVar)
		if k > 6 {
			k = 1 + rng.Intn(6)
		}
		for len(cores[i]) < k {
			cores[i] = append(cores[i], rng.Intn(nVar))
		}
	}
	return cores, costs
}

// TestMinHittingSetMatchesReference compares the search with the
// map-based reference on random growing core sequences. Cores may
// repeat an element; both searches must agree on those too.
func TestMinHittingSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 3000; iter++ {
		cores, costs := randomGrowingCores(rng, 2+rng.Intn(14), 1+rng.Intn(10))
		checkGrowingCores(t, cores, costs)
	}
}

// loadUnit18Cores reads the core sequence recorded from unit18's
// exact support search.
func loadUnit18Cores(tb testing.TB) ([][]int, []int64) {
	tb.Helper()
	f, err := os.Open("testdata/hitting_unit18.txt")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var costs []int64
	var cores [][]int
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		var nums []int
		for _, field := range strings.Fields(line) {
			v, err := strconv.Atoi(field)
			if err != nil {
				tb.Fatal(err)
			}
			nums = append(nums, v)
		}
		if costs == nil {
			for _, v := range nums {
				costs = append(costs, int64(v))
			}
			continue
		}
		cores = append(cores, nums)
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return cores, costs
}

// TestMinHittingSetUnit18 replays unit18's recorded cores against
// the reference search.
func TestMinHittingSetUnit18(t *testing.T) {
	if testing.Short() {
		t.Skip("the reference search takes about a second on this sequence")
	}
	cores, costs := loadUnit18Cores(t)
	checkGrowingCores(t, cores, costs)
}

// TestMinHittingSetNodeLimit pins what an exhausted node limit does:
// the search stops, reports more nodes than the limit, and returns the
// greedy seed. The last optimum stays the floor and the path is
// dropped, so the next search, with nodes to spare, still returns the
// reference set.
func TestMinHittingSetNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for found := 0; found < 20; {
		cores, costs := randomGrowingCores(rng, 4+rng.Intn(12), 2+rng.Intn(10))
		k := len(cores)
		want := minHittingSetRef(cores, costs, noNodeLimit)
		greedy, _ := greedyHittingSet(cores, costs)
		if hittingCost(want, costs) == hittingCost(greedy, costs) {
			continue // the search has nothing to find below the seed
		}
		found++
		slices.Sort(greedy)
		hs := hittingSets{costs: costs}
		hs.next(cores[:k-1], noNodeLimit)
		floor := hs.floor
		for _, maxNodes := range []int64{0, 1} {
			got, nodes, ok := hs.next(cores, maxNodes)
			if !ok || !slices.Equal(got, greedy) || nodes <= maxNodes {
				t.Fatalf("limit %d: got %v ok=%v after %d nodes, want the greedy seed %v past the limit\ncores %v\ncosts %v",
					maxNodes, got, ok, nodes, greedy, cores, costs)
			}
			if hs.floor != floor || hs.path != nil {
				t.Fatalf("limit %d: floor %d path %v after expiry, want floor %d and no path", maxNodes, hs.floor, hs.path, floor)
			}
		}
		if got, _, _ := hs.next(cores, noNodeLimit); !slices.Equal(got, want) {
			t.Fatalf("after expiry: got %v, reference %v\ncores %v\ncosts %v", got, want, cores, costs)
		}
	}
}

// TestMinHittingSetEmptyCore pins the answer for an empty core: no
// set hits it, and both searches say so instead of looping (the greedy
// seed once appended -1 forever).
func TestMinHittingSetEmptyCore(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		costs := []int64{1, 2}
		for _, cores := range [][][]int{{{0}, {}}, {{}}, {{}, {0, 1}}} {
			if sel, ok := greedyHittingSet(cores, costs); ok || sel != nil {
				t.Errorf("greedy on %v: got %v ok=%v, want no hitting set", cores, sel, ok)
			}
			if sel, ok := minHittingSet(cores, costs, 0, noNodeLimit); ok || sel != nil {
				t.Errorf("exact on %v: got %v ok=%v, want no hitting set", cores, sel, ok)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("hitting-set search on an empty core did not return")
	}
}

// FuzzMinHittingSet decodes a cost vector and a growing core sequence
// from the input and checks that every iteration, resumed or afresh,
// returns exactly the reference search's set. The input's first byte
// sizes the element space; the next nVar bytes are costs; each later
// core is a length byte followed by that many element bytes.
func FuzzMinHittingSet(f *testing.F) {
	f.Add([]byte{3, 1, 1, 1, 2, 0, 1, 2, 1, 2})
	f.Add([]byte{5, 5, 1, 1, 10, 2, 2, 0, 1, 2, 0, 2, 2, 3, 4})
	f.Add([]byte{4, 0, 0, 3, 3, 2, 2, 3, 2, 0, 1, 3, 0, 1, 2, 1, 3})
	f.Add([]byte{6, 2, 2, 2, 2, 2, 2, 3, 0, 1, 2, 3, 3, 4, 5, 2, 0, 3, 2, 1, 4, 2, 2, 5, 1, 1, 1, 4})
	f.Add([]byte{8, 1, 2, 3, 4, 4, 3, 2, 1, 4, 0, 1, 2, 3, 4, 4, 5, 6, 7, 2, 0, 7, 2, 1, 6, 2, 2, 5, 2, 3, 4, 3, 0, 0, 4})
	rng := rand.New(rand.NewSource(1815))
	for i := 0; i < 8; i++ {
		nVar := 4 + rng.Intn(12)
		in := []byte{byte(nVar)}
		for j := 0; j < nVar; j++ {
			in = append(in, byte(rng.Intn(8)))
		}
		for c := 0; c < 4+rng.Intn(10); c++ {
			k := 1 + rng.Intn(5)
			in = append(in, byte(k))
			for e := 0; e < k; e++ {
				in = append(in, byte(rng.Intn(nVar)))
			}
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		nVar := 1 + int(in[0])%24
		in = in[1:]
		if len(in) < nVar {
			return
		}
		costs := make([]int64, nVar)
		for j := range costs {
			costs[j] = int64(in[j] % 16)
		}
		in = in[nVar:]
		var cores [][]int
		for len(in) > 0 && len(cores) < 24 {
			k := 1 + int(in[0])%8
			in = in[1:]
			if len(in) < k {
				break
			}
			core := make([]int, k)
			for e := range core {
				core[e] = int(in[e]) % nVar
			}
			in = in[k:]
			cores = append(cores, core)
		}
		checkGrowingCores(t, cores, costs)
	})
}

// BenchmarkMinHittingSet replays unit18's exact support search: one
// op is every iteration's hitting-set call.
func BenchmarkMinHittingSet(b *testing.B) {
	cores, costs := loadUnit18Cores(b)
	b.Run("hittingSets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hs := hittingSets{costs: costs}
			for k := 0; k <= len(cores); k++ {
				hs.next(cores[:k], noNodeLimit)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k <= len(cores); k++ {
				minHittingSetRef(cores[:k], costs, noNodeLimit)
			}
		}
	})
}
