package sat

// Proof records a resolution proof while the solver runs, with just
// enough structure to compute McMillan interpolants afterwards
// (internal/itp): every clause gets an id; root clauses record their
// literals and partition (A or B); learnt clauses record a resolution
// chain — an initial antecedent followed by (antecedent, pivot) pairs.
//
// Proof logging restricts the solver slightly: conflict-clause
// minimization is disabled and Solve must be called without
// assumptions (encode assumptions as unit clauses instead).
type Proof struct {
	lastID int32

	rootLits map[int32][]Lit
	rootPart map[int32]byte // 1 = A, 2 = B
	curPart  byte

	chains map[int32]chainRec

	// Empty-clause derivation, filled in when the solver refutes the
	// formula at decision level 0.
	FinalChain  []int32
	FinalPivots []Var
	hasFinal    bool
}

type chainRec struct {
	chain  []int32
	pivots []Var
}

// PartA and PartB label the two partitions of an interpolation problem.
const (
	PartA byte = 1
	PartB byte = 2
)

// StartProof enables proof logging on s. It must be called before any
// clause is added. Clauses added afterwards belong to partition A
// until BeginB is called.
func (s *Solver) StartProof() *Proof {
	if len(s.clauses) > 0 || len(s.trail) > 0 || len(s.assigns) > 0 {
		panic("sat: StartProof must be called on a fresh solver")
	}
	s.proof = &Proof{
		rootLits: make(map[int32][]Lit),
		rootPart: make(map[int32]byte),
		chains:   make(map[int32]chainRec),
		curPart:  PartA,
	}
	s.zeroNeed = make(map[Var]bool)
	return s.proof
}

// Proof returns the active proof log, or nil.
func (s *Solver) Proof() *Proof { return s.proof }

// BeginB marks the start of partition B: clauses added from now on
// are B-clauses for interpolation.
func (p *Proof) BeginB() { p.curPart = PartB }

// HasFinal reports whether an empty-clause derivation was recorded.
func (p *Proof) HasFinal() bool { return p.hasFinal }

// RootLits returns the literals of root clause id (nil for learnt ids).
func (p *Proof) RootLits(id int32) []Lit { return p.rootLits[id] }

// RootPart returns PartA or PartB for a root clause id, 0 otherwise.
func (p *Proof) RootPart(id int32) byte { return p.rootPart[id] }

// Chain returns the resolution chain of a learnt clause id.
// ok is false for root ids.
func (p *Proof) Chain(id int32) (chain []int32, pivots []Var, ok bool) {
	rec, ok := p.chains[id]
	return rec.chain, rec.pivots, ok
}

// MaxID returns the largest clause id allocated so far.
func (p *Proof) MaxID() int32 { return p.lastID }

// GlobalVars returns the set of variables occurring in B root clauses,
// which is the variable scope of a McMillan interpolant.
func (p *Proof) GlobalVars() map[Var]bool {
	g := make(map[Var]bool)
	for id, part := range p.rootPart {
		if part == PartB {
			for _, l := range p.rootLits[id] {
				g[l.Var()] = true
			}
		}
	}
	return g
}

func (p *Proof) addRoot(lits []Lit) {
	p.lastID++
	p.rootLits[p.lastID] = append([]Lit(nil), lits...)
	p.rootPart[p.lastID] = p.curPart
}

func (p *Proof) addLearnt(lits []Lit, chain []int32, pivots []Var) {
	p.lastID++
	p.chains[p.lastID] = chainRec{
		chain:  append([]int32(nil), chain...),
		pivots: append([]Var(nil), pivots...),
	}
	_ = lits
}

// addFinal records the derivation of the empty clause from a clause
// conflicting at decision level 0. Every literal of confl (and,
// transitively, of the antecedents pulled in) is resolved away using
// the level-0 implication graph.
func (s *Solver) addFinal(confl CRef) {
	p := s.proof
	chain := []int32{s.ca.id(confl)}
	var pivots []Var
	need := make(map[Var]bool)
	for _, l := range s.ca.lits(confl) {
		need[l.Var()] = true
	}
	for i := len(s.trail) - 1; i >= 0; i-- {
		v := s.trail[i].Var()
		if !need[v] {
			continue
		}
		if r := s.reason[v]; r != CRefUndef {
			chain = append(chain, s.ca.id(r))
			pivots = append(pivots, v)
			for _, q := range s.ca.lits(r)[1:] {
				need[q.Var()] = true
			}
		} else {
			chain = append(chain, s.unitID[v])
			pivots = append(pivots, v)
		}
	}
	p.FinalChain = chain
	p.FinalPivots = pivots
	p.hasFinal = true
}

// resolveZeroCone appends, to an analyze chain, the resolutions with
// level-0 antecedents needed to eliminate literals that analyze
// silently dropped because they were falsified at level 0.
func (s *Solver) resolveZeroCone(chain []int32, pivots []Var) ([]int32, []Var) {
	if len(s.zeroNeed) == 0 {
		return chain, pivots
	}
	limit := len(s.trail)
	if len(s.trailLim) > 0 {
		limit = int(s.trailLim[0])
	}
	for i := limit - 1; i >= 0; i-- {
		v := s.trail[i].Var()
		if !s.zeroNeed[v] {
			continue
		}
		delete(s.zeroNeed, v)
		if r := s.reason[v]; r != CRefUndef {
			chain = append(chain, s.ca.id(r))
			pivots = append(pivots, v)
			for _, q := range s.ca.lits(r)[1:] {
				s.zeroNeed[q.Var()] = true
			}
		} else {
			chain = append(chain, s.unitID[v])
			pivots = append(pivots, v)
		}
	}
	clear(s.zeroNeed)
	return chain, pivots
}
