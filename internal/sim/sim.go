// Package sim provides the bit-parallel simulation primitives shared
// across the patch pipeline: a model bank that replays full SAT models
// as 64-packed pattern words to answer assumption-only re-solves
// without the solver, and a cross-window pool of input patterns that
// feeds simulation-guided divisor pruning. The CEC sweeper keys its
// candidate equivalence classes on the same canonical signature
// representation (see sig.go).
package sim

import (
	"math/bits"

	"ecopatch/internal/sat"
)

// Model is anything that can report the value a satisfying assignment
// gives to a literal, such as a satisfied *sat.Solver.
type Model interface {
	ModelBool(sat.Lit) bool
}

// ModelBank stores full SAT models over a fixed set of watched
// variables as bitvectors: row r holds, for each banked model, the
// value of watched variable r in that model — so a query "is there a
// banked model satisfying all of these literals" is a word-wise AND
// over the assumption rows. The bank is only sound while the solver's
// clause set does not grow: adding a clause can invalidate every
// banked model, so callers must discard the bank before the first
// AddClause after banking (the eco engine drops it at the cube
// enumeration boundary).
type ModelBank struct {
	rows map[sat.Var]int
	vars []sat.Var  // row order
	bits [][]uint64 // per row, one word per started 64-model block
	n    int        // banked models
	max  int
}

// NewModelBank builds a bank watching the variables of the given
// literals (polarity is resolved per query), holding at most max
// models. Rows start empty and grow one word per 64 banked models, so
// a bank that sees few models stays small whatever its cap.
func NewModelBank(watch []sat.Lit, max int) *ModelBank {
	b := &ModelBank{rows: make(map[sat.Var]int, len(watch)), max: max}
	for _, l := range watch {
		v := l.Var()
		if _, ok := b.rows[v]; ok {
			continue
		}
		b.rows[v] = len(b.vars)
		b.vars = append(b.vars, v)
	}
	b.bits = make([][]uint64, len(b.vars))
	return b
}

// Patterns returns the number of banked models.
func (b *ModelBank) Patterns() int { return b.n }

// Add banks the watched-variable projection of one model. Returns
// false when the bank is full.
func (b *ModelBank) Add(m Model) bool {
	if b.n >= b.max {
		return false
	}
	w, bit := b.n/64, uint(b.n%64)
	for r, v := range b.vars {
		if bit == 0 {
			b.bits[r] = append(b.bits[r], 0)
		}
		if m.ModelBool(sat.PosLit(v)) {
			b.bits[r][w] |= 1 << bit
		}
	}
	b.n++
	return true
}

// Find returns the index of some banked model satisfying every
// literal in assumps, or -1. Because every banked pattern is a real
// model of the (unchanged) clause set, a hit proves the formula
// satisfiable under the assumptions with zero solver work. A literal
// over an unwatched variable conservatively fails the query.
func (b *ModelBank) Find(assumps []sat.Lit) int {
	nw := (b.n + 63) / 64
	for w := 0; w < nw; w++ {
		acc := ^uint64(0)
		if rem := b.n - w*64; rem < 64 {
			acc = 1<<uint(rem) - 1
		}
		for _, l := range assumps {
			r, ok := b.rows[l.Var()]
			if !ok {
				return -1
			}
			word := b.bits[r][w]
			if l.Sign() {
				word = ^word
			}
			if acc &= word; acc == 0 {
				break
			}
		}
		if acc != 0 {
			return w*64 + bits.TrailingZeros64(acc)
		}
	}
	return -1
}

// Bit reads banked model p's value of literal l. The literal's
// variable must be watched.
func (b *ModelBank) Bit(l sat.Lit, p int) bool {
	r, ok := b.rows[l.Var()]
	if !ok {
		panic("sim: Bit on unwatched variable")
	}
	v := b.bits[r][p/64]>>uint(p%64)&1 == 1
	return v != l.Sign()
}

// PatternBank pools input patterns (PI assignments, indexed by PI
// position) across rectification windows, 64-packed per input for
// direct use as simulation words. The pool is append-only and capped:
// once full, further patterns are dropped, so cache keys derived from
// its contents stay stable for the rest of the run.
type PatternBank struct {
	rows [][]uint64 // one row per input
	n    int
	max  int
}

// NewPatternBank builds an empty pool over the given input count,
// holding at most max patterns.
func NewPatternBank(inputs, max int) *PatternBank {
	b := &PatternBank{rows: make([][]uint64, inputs), max: max}
	words := (max + 63) / 64
	for i := range b.rows {
		b.rows[i] = make([]uint64, words)
	}
	return b
}

// Patterns returns the number of pooled patterns.
func (b *PatternBank) Patterns() int { return b.n }

// Inputs returns the pool's input count.
func (b *PatternBank) Inputs() int { return len(b.rows) }

// Rounds returns the number of populated 64-pattern words per input.
func (b *PatternBank) Rounds() int { return (b.n + 63) / 64 }

// Add pools one input assignment. Returns false when the pool is full
// or the assignment has the wrong arity.
func (b *PatternBank) Add(assign []bool) bool {
	if b.n >= b.max || len(assign) != len(b.rows) {
		return false
	}
	w, bit := b.n/64, uint(b.n%64)
	for i, v := range assign {
		if v {
			b.rows[i][w] |= 1 << bit
		}
	}
	b.n++
	return true
}

// Word returns the 64-pattern word of one input covering patterns
// [64*round, 64*round+64); bits at or beyond Patterns() are zero.
func (b *PatternBank) Word(input, round int) uint64 { return b.rows[input][round] }

// AppendKey appends the pool's full contents to a cache-key buffer:
// the pattern count followed by every populated word of every input
// row. Pools with identical contents produce identical keys, so work
// whose outcome depends on the pooled patterns (divisor pruning) can
// fold the pool state into its memoization key.
func (b *PatternBank) AppendKey(buf []uint64) []uint64 {
	buf = append(buf, uint64(b.n))
	nw := b.Rounds()
	for _, row := range b.rows {
		buf = append(buf, row[:nw]...)
	}
	return buf
}
