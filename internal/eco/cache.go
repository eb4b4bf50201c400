package eco

import "ecopatch/internal/aig"

// This file builds the engine's cache keys and replays cached
// entries. Two kinds of work are memoized at the window level:
//
//   - the QBF feasibility outcome of expression (1), keyed by the
//     canonical cone of the full miter plus the target partition and
//     the conflict budget (the countermoves are part of the value —
//     they drive move-guided quantification, so a hit must replay
//     them for identical downstream behavior);
//   - the per-target patch of one rectification window, keyed by the
//     canonical cones of both cofactor miters and every divisor edge
//     plus the divisor order/costs and Options.AppendKey.
//
// Keys are canonical cone encodings: nodes renumbered densely in
// topological order, PIs identified by name. Two structurally
// identical windows over identically-named signals therefore key
// equal even when they were built in different working AIGs or at
// different node offsets (overlapping windows of a rectification
// retry, or repeat daemon jobs over the same netlist pair).

// Key-layout version tags. Distinct prefixes keep the two entry kinds
// from ever comparing equal; bump on layout changes.
const (
	feasKeyVersion   uint64 = 0xecc0_fea5<<32 | 1
	windowKeyVersion uint64 = 0xecc0_aa1c<<32 | 2
)

// feasEntry is the cached outcome of the QBF feasibility check.
// moves is shared read-only between the cache and every hitting run.
type feasEntry struct {
	feasible bool
	copies   int
	moves    [][]bool
}

// patchEntry is the cached outcome of one rectified window: the
// optimized, support-slimmed patch AIG and its support exactly as
// installPatch hands them to installFinal (pre-sort, pre-reorder), so
// a hit replays the very same install sequence a cold recomputation
// would run — including the working-AIG edge it builds, which feeds
// the cones of later targets. Cost is NOT cached: it depends on which
// signals earlier targets in the current run already paid for and is
// recomputed on every install. The AIG is immutable once inserted and
// may be read (Transfer sources are read-only) by many runs
// concurrently.
type patchEntry struct {
	raw        *aig.AIG
	support    []string // raw (pre-sort) order
	cubes      int
	structural bool
	// patterns are the input patterns harvested while this window was
	// computed; a hit replays them into the pattern pool so pool state
	// (which keys and feeds later windows' pruning) stays identical
	// between a cold compute and a cached replay.
	patterns [][]bool
}

// appendKeyString packs a length-prefixed string into the key.
func appendKeyString(buf []uint64, s string) []uint64 {
	buf = append(buf, uint64(len(s)))
	var w uint64
	for i := 0; i < len(s); i++ {
		w = w<<8 | uint64(s[i])
		if i%8 == 7 {
			buf = append(buf, w)
			w = 0
		}
	}
	if len(s)%8 != 0 {
		buf = append(buf, w)
	}
	return buf
}

// Per-node tags of the cone encoding.
const (
	keyTagConst uint64 = 0xc0 << 56
	keyTagPI    uint64 = 0xc1 << 56
	keyTagAnd   uint64 = 0xc2 << 56
	keyTagRoots uint64 = 0xc3 << 56
)

// appendConeKey appends a canonical, position-independent encoding of
// the cones of roots in g: cone nodes are renumbered densely in
// topological order (ConeNodes returns ascending indices, and AND
// fanins always precede their node), PIs are encoded by name, and
// each root edge is appended with its complement bit.
func appendConeKey(buf []uint64, g *aig.AIG, roots []aig.Lit) []uint64 {
	nodes := g.ConeNodes(roots)
	dense := make(map[int]uint64, len(nodes))
	piPos := make(map[int]int, g.NumPIs())
	for i := 0; i < g.NumPIs(); i++ {
		piPos[g.PI(i).Node()] = i
	}
	edgeWord := func(l aig.Lit) uint64 {
		w := dense[l.Node()] << 1
		if l.Compl() {
			w |= 1
		}
		return w
	}
	for rank, idx := range nodes {
		dense[idx] = uint64(rank)
		switch {
		case g.IsConst(idx):
			buf = append(buf, keyTagConst)
		case g.IsPI(idx):
			buf = append(buf, keyTagPI)
			buf = appendKeyString(buf, g.PIName(piPos[idx]))
		default:
			f0, f1 := g.Fanins(idx)
			buf = append(buf, keyTagAnd, edgeWord(f0), edgeWord(f1))
		}
	}
	buf = append(buf, keyTagRoots, uint64(len(roots)))
	for _, r := range roots {
		buf = append(buf, edgeWord(r))
	}
	return buf
}

// feasKey builds the QBF feasibility key, or nil when caching is off.
func (e *engine) feasKey() []uint64 {
	if e.opt.Cache == nil {
		return nil
	}
	buf := make([]uint64, 0, 1024)
	buf = append(buf, feasKeyVersion, uint64(e.opt.ConfBudget))
	// The cone encodes every reached PI by name; the explicit target
	// list pins the ∃x/∀t partition on top of that.
	buf = append(buf, uint64(len(e.targets)))
	for _, t := range e.targets {
		buf = appendKeyString(buf, t)
	}
	return appendConeKey(buf, e.w, []aig.Lit{e.fullMiter})
}

// windowKey builds the patch-cache key for target i over its cofactor
// miters, or nil when caching is off.
func (e *engine) windowKey(i int, m0, m1 aig.Lit) []uint64 {
	if e.opt.Cache == nil {
		return nil
	}
	buf := make([]uint64, 0, 4096)
	buf = append(buf, windowKeyVersion)
	buf = e.opt.AppendKey(buf)
	// What a window computes depends on the pooled patterns its
	// divisor pruning simulates; fold the pool state into the key so a
	// hit is only taken when the pruning inputs match too.
	if e.patterns != nil {
		buf = e.patterns.AppendKey(buf)
	}
	buf = appendKeyString(buf, e.targets[i])
	// Divisor identity: order, names and costs; the edges themselves
	// are cone roots so divisor *functions* are part of the key too.
	buf = append(buf, uint64(len(e.divisors)))
	for _, d := range e.divisors {
		buf = appendKeyString(buf, d.name)
		buf = append(buf, uint64(int64(d.cost)))
	}
	roots := make([]aig.Lit, 0, 2+len(e.divisors))
	roots = append(roots, m0, m1)
	for _, d := range e.divisors {
		roots = append(roots, d.edge)
	}
	return appendConeKey(buf, e.w, roots)
}

// snapshotPatch captures target i's installed patch for insertion,
// using the raw (pre-sort, pre-reorder) artifacts installFinal
// recorded so a future hit replays the install exactly.
func (e *engine) snapshotPatch(i int) *patchEntry {
	return &patchEntry{
		raw:        e.rawPatchAIGs[i],
		support:    append([]string(nil), e.rawSupports[i]...),
		cubes:      e.targetPatches[i].Cubes,
		structural: e.targetPatches[i].Structural,
		patterns:   append([][]bool(nil), e.winPatterns...),
	}
}

// installCachedPatch replays a cached window entry for target i by
// running the shared install tail on the stored raw patch — the same
// code path a cold recomputation takes after synthesis, so the
// working-AIG edge, cost accounting and reported figures come out
// bit-identical. Only the SAT/synthesis work is skipped.
func (e *engine) installCachedPatch(i int, p *patchEntry) {
	if p.structural {
		e.stats.StructuralFixes++
	}
	for _, a := range p.patterns {
		e.addPattern(a)
	}
	e.installFinal(i, p.raw, append([]string(nil), p.support...), p.structural)
	e.targetPatches[i].Cubes = p.cubes
	e.logf("target %s: window cache hit |support|=%d cost=%d gates=%d structural=%v",
		e.targets[i], len(p.support), e.targetPatches[i].Cost, e.targetPatches[i].Gates, p.structural)
}
