package eco

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"ecopatch/internal/sat"
)

// exactSupport implements SAT-prune (§3.4.2): an exact minimum-cost
// support for the current target. The paper describes one solver that
// alternately blocks cost-dominated and infeasible divisor subsets
// until UNSAT; this is realized here as the equivalent implicit
// hitting-set loop:
//
//   - an exact branch-and-bound hitting-set enumerator proposes the
//     cheapest divisor subset hitting all known "cores";
//   - a SAT call on expression (2) checks whether the subset can
//     express the patch;
//   - an infeasible subset yields a new core from the SAT model: the
//     divisors outside the subset that distinguish the discovered
//     onset/offset pair (any sufficient support must contain one).
//
// When the proposal is feasible it is provably cost-minimum: every
// feasible support hits all cores, and the proposal is the cheapest
// hitting set.
func (e *engine) exactSupport(s *sat.Solver, fixed []sat.Lit, divs []divisor,
	auxs []sat.Lit, d1s, d2s []sat.Lit) ([]int, error) {
	costs := make([]int64, len(divs))
	for j := range divs {
		costs[j] = int64(divs[j].cost)
	}
	start := e.group.stats().Propagations // the work meter, see stageAllot
	var nodeTicks int64
	var cores [][]int
	hs := hittingSets{costs: costs}
	for {
		// Every core is non-empty (an empty one is an error below), so
		// a hitting set exists. Past the node limit the search returns
		// the greedy seed, which is not provably cheapest: the stage
		// is over budget.
		left := stageAllot.support - nodeTicks - (e.group.stats().Propagations - start)
		maxNodes := left / hittingNodeTicks
		sel, nodes, _ := hs.next(cores, maxNodes)
		if left <= 0 || nodes > maxNodes {
			return nil, errBudget
		}
		nodeTicks += nodes * hittingNodeTicks
		assumps := append([]sat.Lit(nil), fixed...)
		for _, j := range sel {
			assumps = append(assumps, auxs[j])
		}
		e.stats.SATCalls++
		fromBank := -1
		if e.winBank != nil {
			fromBank = e.winBank.Find(assumps)
		}
		if fromBank >= 0 {
			// A banked model already witnesses this subset's
			// infeasibility; its divisor values yield the core below.
			// Termination holds: the derived core forces every later
			// hitting set to include a divisor whose copies differ on
			// this pattern, so its (strengthened) aux bit is false and
			// the same pattern can never re-answer.
			e.stats.SimElided++
		} else {
			switch s.Solve(assumps...) {
			case sat.Unsat:
				sort.Ints(sel)
				return sel, nil
			case sat.Unknown:
				return nil, errBudget
			}
			e.bankModel(s)
		}
		// Infeasible: derive a core from the model. The model exposes
		// an onset/offset pair agreeing on sel; a valid support must
		// include some divisor distinguishing the pair.
		inSel := make(map[int]bool, len(sel))
		for _, j := range sel {
			inSel[j] = true
		}
		var core []int
		for j := range divs {
			if inSel[j] {
				continue
			}
			var differ bool
			if fromBank >= 0 {
				differ = e.winBank.Bit(d1s[j], fromBank) != e.winBank.Bit(d2s[j], fromBank)
			} else {
				differ = s.ModelBool(d1s[j]) != s.ModelBool(d2s[j])
			}
			if differ {
				core = append(core, j)
			}
		}
		if len(core) == 0 {
			return nil, fmt.Errorf("eco: SAT_prune found no distinguishing divisor (full set insufficient)")
		}
		cores = append(cores, core)
	}
}

// hittingSets proposes minimum-cost hitting sets for a core list that
// only grows between calls, as SAT_prune's does. It carries two facts
// from one call to the next, both valid because a hitting set of the
// longer list is one of the shorter list too:
//
//   - floor, the last optimum, bounds the next one from below;
//   - path, the branches leading to the last optimum in the
//     depth-first order. Every branch the last search left before
//     that path held no hitting set within floor; with more cores it
//     still holds none, so the next search at the same limit skips
//     them and resumes where the last one stopped.
//
// The returned set is a function of the cores and costs alone, and the
// one the plain branch and bound this replaced returned (the tests keep
// it as minHittingSetRef): the greedy seed when nothing is cheaper,
// else the first minimum-cost leaf of the depth-first order that
// branches on the first smallest uncovered core, its elements in cost
// order. The search deepens a cost limit from the floor, and each pass
// looks for the first leaf within the limit, so the first pass that
// finds one finds that leaf. Every pruning rule only cuts subtrees
// that hold no leaf within the limit, or whose leaves an earlier
// sibling's subtree already covers at no higher cost, so none of them
// changes which set is returned.
type hittingSets struct {
	costs []int64
	floor int64
	path  []hittingStep // nil when the last result was the greedy seed
}

// hittingStep is one branch of a search path: the core branched on
// and the element chosen from it.
type hittingStep struct{ core, elem int }

// next returns a minimum-cost hitting set of cores, which must extend
// the list of the previous call, and the search nodes it visited. With
// no cores the set is empty; ok is false when some core is empty, so
// that no set hits them all. A search past maxNodes nodes stops and
// returns the greedy seed, for which exactSupport degrades.
func (hs *hittingSets) next(cores [][]int, maxNodes int64) (set []int, nodes int64, ok bool) {
	if len(cores) == 0 {
		return nil, 0, true
	}
	greedy, ok := greedyHittingSet(cores, hs.costs)
	if !ok {
		return nil, 0, false
	}
	var gc int64
	for _, j := range greedy {
		gc += hs.costs[j]
	}
	sort.Ints(greedy)
	h := newHittingSearch(cores, hs.costs, maxNodes)
	_, limit, _ := h.uncovered(gc)
	if limit <= hs.floor {
		limit = hs.floor
		h.resume = hs.path
	}
	for ; limit < gc && !h.expired(); limit++ {
		h.limit = limit
		if h.rec(0, h.resume != nil) {
			hs.floor, hs.path = limit, h.foundPath
			return h.found, h.nodes, true
		}
		h.resume = nil
	}
	if !h.expired() {
		hs.floor = gc
	}
	hs.path = nil
	return greedy, h.nodes, true
}

// hittingSearch is the state of one hittingSets.next call. Element
// sets are bitsets of words uint64s: each core is one row of rows,
// and chosen and excluded index the same element space.
type hittingSearch struct {
	costs    []int64
	words    int
	rows     []uint64  // core i is rows[i*words : (i+1)*words]
	order    [][]int   // core i sorted by cost: its branch order
	bySize   []int     // core indices, smallest first, ties by index
	hits     []int32   // chosen elements in core i; 0 means uncovered
	coresOf  [][]int32 // the cores holding element j
	chosen   []uint64
	excluded []uint64
	resid    []int64 // per-element cost the bound has not charged yet
	trail    []int   // elements excluded by the open nodes, in order

	limit     int64         // the largest leaf cost this pass accepts
	resume    []hittingStep // the previous search's path, while following it
	path      []hittingStep // the branches from the root to the current node
	found     []int         // the leaf found, and the path to it
	foundPath []hittingStep
	nodes     int64
	maxNodes  int64
}

// expired reports whether the search has outrun its node limit.
func (h *hittingSearch) expired() bool { return h.nodes > h.maxNodes }

func newHittingSearch(cores [][]int, costs []int64, maxNodes int64) *hittingSearch {
	words := (len(costs) + 63) / 64
	h := &hittingSearch{
		costs:    costs,
		words:    words,
		rows:     make([]uint64, len(cores)*words),
		order:    make([][]int, len(cores)),
		bySize:   make([]int, len(cores)),
		hits:     make([]int32, len(cores)),
		coresOf:  make([][]int32, len(costs)),
		chosen:   make([]uint64, words),
		excluded: make([]uint64, words),
		resid:    make([]int64, len(costs)),
		maxNodes: maxNodes,
	}
	for i, c := range cores {
		row := h.row(i)
		for _, j := range c {
			if !hasBit(row, j) {
				row[j>>6] |= 1 << (uint(j) & 63)
				h.coresOf[j] = append(h.coresOf[j], int32(i))
			}
		}
		order := append([]int(nil), c...)
		sort.Slice(order, func(a, b int) bool { return costs[order[a]] < costs[order[b]] })
		h.order[i] = order
		h.bySize[i] = i
	}
	sort.SliceStable(h.bySize, func(a, b int) bool { return len(cores[h.bySize[a]]) < len(cores[h.bySize[b]]) })
	return h
}

func (h *hittingSearch) row(i int) []uint64 { return h.rows[i*h.words : (i+1)*h.words] }

func hasBit(set []uint64, j int) bool { return set[j>>6]&(1<<(uint(j)&63)) != 0 }

// uncovered returns the first smallest core the chosen set misses
// (-1 when it hits them all) and a lower bound on the cost still to
// add. The bound is a greedy dual: each uncovered core, smallest
// first, is charged the least residual cost among its elements that
// are not excluded, and that charge is taken off the residual of all
// of them, so no element pays twice. It stops early once the bound
// exceeds budget. resid holds the residuals afterwards: a leaf below
// that adds element j costs at least lb + resid[j] more. dead reports
// an uncovered core whose every element is excluded.
func (h *hittingSearch) uncovered(budget int64) (pick int, lb int64, dead bool) {
	pick = -1
	copy(h.resid, h.costs)
	for _, i := range h.bySize {
		if h.hits[i] != 0 {
			continue
		}
		if pick < 0 {
			pick = i
		}
		row := h.row(i)
		minR := int64(-1)
	scan:
		for k, w := range row {
			for w &^= h.excluded[k]; w != 0; w &= w - 1 {
				r := h.resid[k<<6|bits.TrailingZeros64(w)]
				if minR < 0 || r < minR {
					if minR = r; r == 0 {
						break scan
					}
				}
			}
		}
		if minR < 0 {
			return pick, lb, true
		}
		if minR == 0 {
			continue
		}
		if lb += minR; lb > budget {
			return pick, lb, false
		}
		for k, w := range row {
			for w &^= h.excluded[k]; w != 0; w &= w - 1 {
				h.resid[k<<6|bits.TrailingZeros64(w)] -= minR
			}
		}
	}
	return pick, lb, false
}

// rec searches the subtree under the chosen set, which cost costSoFar,
// for the first leaf within the limit; it reports whether it found
// one. resuming is set while the node lies on the previous search's
// path.
func (h *hittingSearch) rec(costSoFar int64, resuming bool) bool {
	if h.nodes++; h.expired() || costSoFar > h.limit {
		return false
	}
	pick, lb, dead := h.uncovered(h.limit - costSoFar)
	if pick < 0 {
		for k, w := range h.chosen {
			for ; w != 0; w &= w - 1 {
				h.found = append(h.found, k<<6|bits.TrailingZeros64(w))
			}
		}
		h.foundPath = slices.Clone(h.path)
		return true
	}
	if dead || costSoFar+lb > h.limit {
		return false
	}
	// Reduced-cost exclusion: an element whose residual exceeds the
	// slack cannot be in a leaf within the limit below this node.
	mark := len(h.trail)
	slack := h.limit - costSoFar - lb
	for k, w := range h.excluded {
		for free := ^w; free != 0; free &= free - 1 {
			j := k<<6 | bits.TrailingZeros64(free)
			if j >= len(h.costs) {
				break
			}
			if h.resid[j] > slack {
				h.exclude(j)
			}
		}
	}
	// Following the previous search's path, the siblings before its
	// branch held no leaf within this limit then and hold none now.
	skip := -1
	if depth := len(h.path); resuming && depth < len(h.resume) && h.resume[depth].core == pick {
		skip = slices.Index(h.order[pick], h.resume[depth].elem)
	}
	// Branch on each element of the picked core, cheapest first. Once
	// the branch on j has returned, the later siblings exclude j: any
	// set they would reach through j, the branch on j already reached
	// (or a subset of it, costing no more) earlier in the order.
	found := false
	for at, j := range h.order[pick] {
		if hasBit(h.excluded, j) {
			continue
		}
		if at < skip {
			h.exclude(j)
			continue
		}
		bit := uint64(1) << (uint(j) & 63)
		h.chosen[j>>6] |= bit
		for _, i := range h.coresOf[j] {
			h.hits[i]++
		}
		h.path = append(h.path, hittingStep{pick, j})
		found = h.rec(costSoFar+h.costs[j], at == skip)
		h.path = h.path[:len(h.path)-1]
		h.chosen[j>>6] &^= bit
		for _, i := range h.coresOf[j] {
			h.hits[i]--
		}
		if found || h.expired() {
			break
		}
		h.exclude(j)
	}
	for _, j := range h.trail[mark:] {
		h.excluded[j>>6] &^= 1 << (uint(j) & 63)
	}
	h.trail = h.trail[:mark]
	return found
}

// exclude bars element j from the rest of the open node's subtree.
func (h *hittingSearch) exclude(j int) {
	h.excluded[j>>6] |= 1 << (uint(j) & 63)
	h.trail = append(h.trail, j)
}

// greedyHittingSet repeatedly picks the element covering the most
// uncovered cores per unit cost, the smallest index among ties. ok is
// false when some core is empty.
func greedyHittingSet(cores [][]int, costs []int64) ([]int, bool) {
	covered := make([]bool, len(cores))
	gain := make([]float64, len(costs))
	var out []int
	for {
		clear(gain)
		remaining := 0
		for ci, c := range cores {
			if covered[ci] {
				continue
			}
			if len(c) == 0 {
				return nil, false
			}
			remaining++
			for _, j := range c {
				w := costs[j]
				if w <= 0 {
					w = 1
				}
				gain[j] += 1 / float64(w)
			}
		}
		if remaining == 0 {
			return out, true
		}
		bestJ, bestG := -1, 0.0
		for j, g := range gain {
			if g > bestG {
				bestJ, bestG = j, g
			}
		}
		out = append(out, bestJ)
		for ci, c := range cores {
			if covered[ci] {
				continue
			}
			for _, j := range c {
				if j == bestJ {
					covered[ci] = true
					break
				}
			}
		}
	}
}
