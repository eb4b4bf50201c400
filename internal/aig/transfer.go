package aig

// Transfer copies the cones of the given roots from src into dst,
// substituting piMap[i] (an edge in dst) for the i-th primary input of
// src. It returns the corresponding root edges in dst. Structural
// hashing in dst collapses any logic that becomes shared or constant.
//
// Transfer is the workhorse behind cofactoring, composition (plugging
// patch functions into targets), miter construction and quantifier
// expansion.
func Transfer(dst *AIG, src *AIG, piMap []Lit, roots []Lit) []Lit {
	if len(piMap) != src.NumPIs() {
		panic("aig: Transfer piMap length mismatch")
	}
	s := optPool.Get().(*optScratch)
	defer optPool.Put(s)
	cone := s.coneInto(src, roots)
	// The copy map is pooled and carries stale values; the mark set
	// says which entries are valid for this run.
	s.resetMarks(src.NumNodes())
	copyMap := s.litSlice(src.NumNodes())
	copyMap[0] = ConstFalse
	s.see(0)
	for i, p := range src.pis {
		copyMap[p] = piMap[i]
		s.see(p)
	}
	// Nodes are in topological order, so a single pass over the cone
	// suffices.
	for _, idx32 := range cone {
		idx := int(idx32)
		if s.seen(idx) {
			continue
		}
		n := src.nodes[idx]
		a := copyMap[n.f0.Node()].XorCompl(n.f0.Compl())
		b := copyMap[n.f1.Node()].XorCompl(n.f1.Compl())
		copyMap[idx] = dst.And(a, b)
		s.see(idx)
	}
	out := make([]Lit, len(roots))
	for i, r := range roots {
		out[i] = copyMap[r.Node()].XorCompl(r.Compl())
	}
	return out
}

// IdentityMap returns the PI map that plugs src's PIs one-to-one onto
// the first src.NumPIs() PIs of dst (creating them in dst with src's
// names if dst has fewer).
func IdentityMap(dst, src *AIG) []Lit {
	m := make([]Lit, src.NumPIs())
	for i := range m {
		if i < dst.NumPIs() {
			m[i] = dst.PI(i)
		} else {
			m[i] = dst.AddPI(src.PIName(i))
		}
	}
	return m
}

// Clone returns a deep copy of g (with structural hashing rebuilt).
func Clone(g *AIG) *AIG {
	ng := New()
	m := IdentityMap(ng, g)
	outs := Transfer(ng, g, m, g.pos)
	for i, o := range outs {
		ng.AddPO(g.POName(i), o)
	}
	return ng
}

// Cofactor returns, in dst, the roots of src with the PIs listed in
// fixed set to the given constants and all other PIs mapped through
// piMap (see Transfer).
func Cofactor(dst *AIG, src *AIG, piMap []Lit, fixed map[int]bool, roots []Lit) []Lit {
	m := make([]Lit, len(piMap))
	copy(m, piMap)
	for i, v := range fixed {
		if v {
			m[i] = ConstTrue
		} else {
			m[i] = ConstFalse
		}
	}
	return Transfer(dst, src, m, roots)
}
