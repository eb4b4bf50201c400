// Package sat implements a conflict-driven clause-learning (CDCL)
// Boolean satisfiability solver in the style of MiniSat, with the
// incremental-assumption interface the ECO engine relies on:
// Solve(assumptions...) and, after an UNSAT answer, a conflict core
// over the assumptions equivalent to MiniSat's analyze_final.
//
// The solver supports two-watched-literal propagation, VSIDS variable
// activity with an indexed heap, phase saving, Glucose-style restarts,
// first-UIP clause learning with recursive clause minimization, a
// two-tier (LBD, then activity) learnt-clause database, and optional
// resolution-proof logging used by the interpolation baseline
// (internal/itp).
package sat

import "fmt"

// Var is a Boolean variable index. Variables are created densely
// starting from 0 via Solver.NewVar.
type Var int32

// Lit is a literal: variable 2*v for the positive literal of v and
// 2*v+1 for the negative literal.
type Lit int32

// LitUndef is a sentinel for "no literal".
const LitUndef Lit = -1

// MkLit returns the literal of v, negated when neg is true.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v) << 1 }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v)<<1 | 1 }

// Var returns the variable underlying l.
func (l Lit) Var() Var { return Var(l >> 1) }

// Sign reports whether l is the negative literal of its variable.
func (l Lit) Sign() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// XorSign returns l complemented when neg is true.
func (l Lit) XorSign(neg bool) Lit {
	if neg {
		return l ^ 1
	}
	return l
}

// String renders the literal in DIMACS-like form (e.g. "3", "-3").
func (l Lit) String() string {
	if l == LitUndef {
		return "undef"
	}
	if l.Sign() {
		return fmt.Sprintf("-%d", int(l.Var())+1)
	}
	return fmt.Sprintf("%d", int(l.Var())+1)
}

// LBool is a lifted Boolean: true, false or undefined.
type LBool int8

// Lifted Boolean constants.
const (
	LUndef LBool = iota
	LTrue
	LFalse
)

// Not returns the lifted negation (LUndef stays LUndef).
func (b LBool) Not() LBool {
	switch b {
	case LTrue:
		return LFalse
	case LFalse:
		return LTrue
	}
	return LUndef
}

func (b LBool) String() string {
	switch b {
	case LTrue:
		return "true"
	case LFalse:
		return "false"
	}
	return "undef"
}

// liftBool converts a concrete bool to an LBool.
func liftBool(v bool) LBool {
	if v {
		return LTrue
	}
	return LFalse
}

// Status is the outcome of a Solve call.
type Status int8

// Solve outcomes.
const (
	// Unknown means the solver gave up (budget exhausted or interrupted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable under the assumptions.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}
