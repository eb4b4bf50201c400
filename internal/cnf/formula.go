package cnf

import "ecopatch/internal/sat"

// Formula records the variable/clause traffic of an encoding so one
// Tseitin pass can serve as a solve-cache key and be replayed into a
// solver. It implements Sink, so it drops in wherever an Encoder would
// write straight into a solver.
//
// Variable numbering is positional: the i-th NewVar call returns
// Var(i), and LoadInto replays the calls in order, so every solver
// loaded from the same Formula sees identical literal numbering — the
// property that lets a solver's model, or a cached one, be read with
// the literals handed out during capture.
type Formula struct {
	nVars int
	lits  []sat.Lit // all clause literals, flattened
	ends  []int32   // prefix ends: clause i is lits[ends[i-1]:ends[i]]
}

// NewVar allocates the next capture variable.
func (f *Formula) NewVar() sat.Var {
	v := sat.Var(f.nVars)
	f.nVars++
	return v
}

// AddClause records a clause. It always reports true: satisfiability
// is not evaluated during capture.
func (f *Formula) AddClause(lits ...sat.Lit) bool {
	f.lits = append(f.lits, lits...)
	f.ends = append(f.ends, int32(len(f.lits)))
	return true
}

// NumVars returns the number of variables captured so far.
func (f *Formula) NumVars() int { return f.nVars }

// NumClauses returns the number of clauses captured so far.
func (f *Formula) NumClauses() int { return len(f.ends) }

// FNV-1a constants for Hash.
const (
	fnvOffset uint64 = 1469598103934665603
	fnvPrime  uint64 = 1099511628211
)

// Hash returns an FNV-1a fingerprint over the formula's full content
// — variable count, clause boundaries and literals — plus the given
// assumptions, in capture order. Two captures hash equal whenever
// LoadInto would replay them identically under the same assumptions;
// callers keying a cache on it must still screen collisions with
// Equal before trusting a match.
func (f *Formula) Hash(assumps []sat.Lit) uint64 {
	h := fnvOffset
	mix := func(v uint64) {
		for i := 0; i < 64; i += 8 {
			h ^= (v >> uint(i)) & 0xff
			h *= fnvPrime
		}
	}
	mix(uint64(f.nVars))
	mix(uint64(len(f.ends)))
	for _, e := range f.ends {
		mix(uint64(uint32(e)))
	}
	for _, l := range f.lits {
		mix(uint64(uint32(l)))
	}
	mix(uint64(len(assumps)))
	for _, a := range assumps {
		mix(uint64(uint32(a)))
	}
	return h
}

// Equal reports whether two captures are identical — same variable
// count, same clauses in the same order with the same literals. This
// is the collision screen behind Hash-keyed caches.
func (f *Formula) Equal(o *Formula) bool {
	if f.nVars != o.nVars || len(f.ends) != len(o.ends) || len(f.lits) != len(o.lits) {
		return false
	}
	for i := range f.ends {
		if f.ends[i] != o.ends[i] {
			return false
		}
	}
	for i := range f.lits {
		if f.lits[i] != o.lits[i] {
			return false
		}
	}
	return true
}

// Words reports the retained slice words of the capture, for cache
// budget accounting.
func (f *Formula) Words() int {
	return (len(f.lits)+1)/2 + (len(f.ends)+1)/2 + 1
}

// LoadInto replays the captured formula into s: NumVars fresh
// variables (s must be empty, or at least aligned so that the next
// variable is Var(0) of the capture) followed by every clause in
// capture order. It returns false if the clauses are trivially
// unsatisfiable in s.
func (f *Formula) LoadInto(s *sat.Solver) bool {
	base := s.NumVars()
	if base != 0 {
		panic("cnf: Formula.LoadInto on a non-empty solver")
	}
	s.EnsureVars(f.nVars)
	ok := true
	start := int32(0)
	for _, end := range f.ends {
		if !s.AddClause(f.lits[start:end]...) {
			ok = false
		}
		start = end
	}
	return ok
}
