package sat

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// readDIMACSClauses parses a corpus file into plain clause lists, for
// checking models independently of the solver's own clause database
// (which drops satisfied/false literals during AddClause).
func readDIMACSClauses(t *testing.T, path string) (nVars int, clauses [][]int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var cur []int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			nVars, _ = strconv.Atoi(fields[2])
			continue
		}
		for _, tok := range strings.Fields(line) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				t.Fatalf("%s: bad literal %q", path, tok)
			}
			if v == 0 {
				clauses = append(clauses, cur)
				cur = nil
				continue
			}
			cur = append(cur, v)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return nVars, clauses
}

func loadCorpusSolver(t *testing.T, path string, withProof bool) *Solver {
	t.Helper()
	s := New()
	if withProof {
		s.StartProof()
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ParseDIMACSInto(f, s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkModel verifies that the solver's model satisfies every original
// clause of the instance.
func checkModel(t *testing.T, s *Solver, clauses [][]int) {
	t.Helper()
	for _, cl := range clauses {
		sat := false
		for _, dl := range cl {
			v := dl
			if v < 0 {
				v = -v
			}
			l := MkLit(Var(v-1), dl < 0)
			if s.ModelValue(l) != LFalse {
				// LTrue satisfies outright; LUndef means the variable
				// is unconstrained, so either phase works.
				sat = true
				break
			}
		}
		if !sat {
			t.Fatalf("model does not satisfy clause %v", cl)
		}
	}
}

// bruteForceSAT decides small instances by exhaustive enumeration.
func bruteForceSAT(nVars int, clauses [][]int) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, cl := range clauses {
			sat := false
			for _, dl := range cl {
				v := dl
				if v < 0 {
					v = -v
				}
				bit := m>>(v-1)&1 == 1
				if bit == (dl > 0) {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// litSet is a clause as a set, the currency of the proof checker.
type litSet map[Lit]bool

// resolveSeq checks a resolution chain step by step: each pivot must
// occur with opposite signs in the running resolvent and the next
// antecedent; the pivot literals are removed and the rest unioned.
func resolveSeq(t *testing.T, clauses map[int32]litSet, chain []int32, pivots []Var) litSet {
	t.Helper()
	if len(chain) != len(pivots)+1 {
		t.Fatalf("chain length %d does not match %d pivots", len(chain), len(pivots))
	}
	base, ok := clauses[chain[0]]
	if !ok {
		t.Fatalf("chain references unknown clause id %d", chain[0])
	}
	cur := make(litSet, len(base))
	for l := range base {
		cur[l] = true
	}
	for i, ant := range chain[1:] {
		antSet, ok := clauses[ant]
		if !ok {
			t.Fatalf("chain references unknown clause id %d", ant)
		}
		pv := pivots[i]
		pos, neg := MkLit(pv, false), MkLit(pv, true)
		var inCur, inAnt Lit
		switch {
		case cur[pos] && antSet[neg]:
			inCur, inAnt = pos, neg
		case cur[neg] && antSet[pos]:
			inCur, inAnt = neg, pos
		default:
			t.Fatalf("pivot %d does not occur with opposite signs (step %d)", pv, i)
		}
		delete(cur, inCur)
		for l := range antSet {
			if l != inAnt {
				cur[l] = true
			}
		}
	}
	return cur
}

// checkRefutation replays the proof log: every learnt clause is
// derived by its recorded chain, and the final chain must resolve to
// the empty clause.
func checkRefutation(t *testing.T, p *Proof) {
	t.Helper()
	if !p.HasFinal() {
		t.Fatal("UNSAT verdict but no empty-clause derivation recorded")
	}
	clauses := make(map[int32]litSet)
	for id := int32(1); id <= p.MaxID(); id++ {
		if root := p.RootLits(id); root != nil || p.RootPart(id) != 0 {
			set := make(litSet, len(root))
			for _, l := range root {
				set[l] = true
			}
			clauses[id] = set
			continue
		}
		chain, pivots, ok := p.Chain(id)
		if !ok {
			t.Fatalf("clause id %d is neither root nor learnt", id)
		}
		clauses[id] = resolveSeq(t, clauses, chain, pivots)
	}
	final := resolveSeq(t, clauses, p.FinalChain, p.FinalPivots)
	if len(final) != 0 {
		t.Fatalf("final chain resolves to %v, want empty clause", final)
	}
}

// TestDIMACSCorpus is the safety net for the clause-arena kernel: it
// runs every corpus formula, validates models on SAT, checks
// refutation proofs on UNSAT, and cross-checks small instances against
// brute force.
func TestDIMACSCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.cnf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			nVars, clauses := readDIMACSClauses(t, path)
			s := loadCorpusSolver(t, path, false)
			st := s.Solve()
			if st == Unknown {
				t.Fatal("solver gave up without budget")
			}
			if st == Sat {
				checkModel(t, s, clauses)
			}
			if nVars <= 16 {
				if want := liftStatus(bruteForceSAT(nVars, clauses)); st != want {
					t.Fatalf("verdict %v disagrees with brute force %v", st, want)
				}
			}
			if st == Unsat {
				// Re-solve with proof logging and check the refutation
				// end to end.
				ps := loadCorpusSolver(t, path, true)
				if st := ps.Solve(); st != Unsat {
					t.Fatalf("proof run: verdict %v, want Unsat", st)
				}
				checkRefutation(t, ps.Proof())
			}
		})
	}
}

func liftStatus(sat bool) Status {
	if sat {
		return Sat
	}
	return Unsat
}
