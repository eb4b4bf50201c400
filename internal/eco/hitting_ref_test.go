package eco

import "sort"

// This file keeps the map-based hitting-set search that the bitset
// search in exact.go replaced, as the reference the differential
// tests and FuzzMinHittingSet compare against. It assumes every core
// is non-empty: on an empty core greedyHittingSetRef never returns.

// minHittingSetRef computes a minimum-cost hitting set of the cores by
// branch and bound with a disjoint-core lower bound. With no cores
// the empty set is returned. A search that outruns maxNodes nodes
// stops and returns the best set found so far, the greedy seed if
// nothing cheaper.
func minHittingSetRef(cores [][]int, costs []int64, maxNodes int64) []int {
	if len(cores) == 0 {
		return nil
	}
	var best []int
	bestCost := int64(1) << 62
	chosen := make(map[int]bool)
	var nodes int64
	expired := false

	snapshot := func(costSoFar int64) {
		best = best[:0]
		for j, on := range chosen {
			if on {
				best = append(best, j)
			}
		}
		best = append([]int(nil), best...)
		bestCost = costSoFar
	}

	// uncovered returns the smallest uncovered core and a lower bound
	// from greedily collected disjoint uncovered cores.
	uncovered := func() (pick []int, lb int64) {
		usedVar := make(map[int]bool)
		for _, c := range cores {
			hit := false
			for _, j := range c {
				if chosen[j] {
					hit = true
					break
				}
			}
			if hit {
				continue
			}
			if pick == nil || len(c) < len(pick) {
				pick = c
			}
			disjoint := true
			minC := int64(1) << 62
			for _, j := range c {
				if usedVar[j] {
					disjoint = false
					break
				}
				if costs[j] < minC {
					minC = costs[j]
				}
			}
			if disjoint {
				lb += minC
				for _, j := range c {
					usedVar[j] = true
				}
			}
		}
		return pick, lb
	}

	var rec func(costSoFar int64)
	rec = func(costSoFar int64) {
		nodes++
		if expired || costSoFar >= bestCost {
			return
		}
		if nodes > maxNodes {
			expired = true
			return
		}
		pick, lb := uncovered()
		if pick == nil {
			snapshot(costSoFar)
			return
		}
		if costSoFar+lb >= bestCost {
			return
		}
		order := append([]int(nil), pick...)
		sort.Slice(order, func(a, b int) bool { return costs[order[a]] < costs[order[b]] })
		for _, j := range order {
			if chosen[j] {
				continue
			}
			chosen[j] = true
			rec(costSoFar + costs[j])
			chosen[j] = false
		}
	}
	// Seed the bound with a greedy solution so pruning bites early.
	greedy := greedyHittingSetRef(cores, costs)
	for _, j := range greedy {
		chosen[j] = true
	}
	var gc int64
	for _, j := range greedy {
		gc += costs[j]
	}
	snapshot(gc)
	for _, j := range greedy {
		chosen[j] = false
	}
	rec(0)
	sort.Ints(best)
	return best
}

// greedyHittingSetRef repeatedly picks the element covering the most
// uncovered cores per unit cost.
func greedyHittingSetRef(cores [][]int, costs []int64) []int {
	covered := make([]bool, len(cores))
	var out []int
	for {
		gain := make(map[int]float64)
		remaining := 0
		for ci, c := range cores {
			if covered[ci] {
				continue
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
			return out
		}
		bestJ, bestG := -1, -1.0
		for j, g := range gain {
			if g > bestG || (g == bestG && j < bestJ) {
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
