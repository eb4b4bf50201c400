package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteDIMACS dumps the solver's problem clauses (learnt clauses are
// derived and therefore omitted) in DIMACS CNF format, including
// level-0 unit assignments. Useful for cross-checking instances with
// external solvers.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if !s.okay {
		// The database is already inconsistent; later clauses may have
		// been dropped, so emit a canonical UNSAT instance.
		fmt.Fprintln(bw, "c formula proved UNSAT during construction")
		fmt.Fprintln(bw, "p cnf 1 2")
		fmt.Fprintln(bw, "1 0")
		fmt.Fprintln(bw, "-1 0")
		return bw.Flush()
	}
	nClauses := len(s.clauses)
	units := 0
	for i, val := range s.assigns {
		if val != LUndef && s.level[i] == 0 {
			units++
		}
	}
	fmt.Fprintf(bw, "p cnf %d %d\n", len(s.assigns), nClauses+units)
	for i, val := range s.assigns {
		if val != LUndef && s.level[i] == 0 {
			v := i + 1
			if val == LFalse {
				v = -v
			}
			fmt.Fprintf(bw, "%d 0\n", v)
		}
	}
	for _, c := range s.clauses {
		for _, l := range s.ca.lits(c) {
			fmt.Fprintf(bw, "%d ", dimacsLit(l))
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}

func dimacsLit(l Lit) int {
	v := int(l.Var()) + 1
	if l.Sign() {
		return -v
	}
	return v
}

// ParseDIMACS reads a DIMACS CNF file into a fresh solver. Comment
// lines ('c ...') and the problem line are handled; variables are
// created as needed (the problem-line count is a lower bound).
func ParseDIMACS(r io.Reader) (*Solver, error) {
	s := New()
	if err := ParseDIMACSInto(r, s); err != nil {
		return nil, err
	}
	return s, nil
}

// ParseDIMACSInto reads a DIMACS CNF file into an existing solver, so
// callers can reserve capacity (Reserve) or enable proof logging
// (StartProof) before loading the formula.
func ParseDIMACSInto(r io.Reader, s *Solver) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var clause []Lit
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return fmt.Errorf("dimacs: line %d: malformed problem line %q", lineNo, line)
			}
			nVars, err := strconv.Atoi(fields[2])
			if err != nil || nVars < 0 {
				return fmt.Errorf("dimacs: line %d: bad variable count", lineNo)
			}
			s.EnsureVars(nVars)
			continue
		}
		for _, tok := range strings.Fields(line) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return fmt.Errorf("dimacs: line %d: bad literal %q", lineNo, tok)
			}
			if v == 0 {
				s.AddClause(clause...)
				clause = clause[:0]
				continue
			}
			av := v
			if av < 0 {
				av = -av
			}
			s.EnsureVars(av)
			clause = append(clause, MkLit(Var(av-1), v < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dimacs: %w", err)
	}
	if len(clause) > 0 {
		return fmt.Errorf("dimacs: trailing clause without terminating 0")
	}
	return nil
}
