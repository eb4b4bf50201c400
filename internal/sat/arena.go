package sat

import (
	"math"
	"unsafe"
)

// CRef is a clause reference: the word offset of a clause header in
// the solver's arena. Clause storage is one flat []uint32 (MiniSat /
// CaDiCaL style), so BCP walks contiguous memory instead of chasing
// *clause pointers, and a clause handle is a 4-byte offset rather
// than an 8-byte pointer.
type CRef uint32

// CRefUndef marks "no clause" (decision variables, unit reasons).
const CRefUndef CRef = ^CRef(0)

// Clause layout in the arena, starting at offset c:
//
//	c+0              header: size<<2 | learnt(bit 0) | reloc(bit 1)
//	c+1              proof id (0 when proof logging is off), or the
//	                 forwarding CRef while the reloc bit is set
//	c+2              activity bits (float32; meaningful for learnts)
//	c+3              LBD (literal block distance; 0 for problem clauses)
//	c+4 .. c+4+size  literals
//
// The fixed 4-word prefix keeps literal offsets constant, which is
// what the propagation inner loop wants; the two words wasted on
// problem clauses are far cheaper than the pointer+slice-header+alloc
// overhead of the previous representation.
const (
	claID   = 1
	claAct  = 2
	claLBD  = 3
	claLits = 4

	flagLearnt = 1
	flagReloc  = 2
)

// arena is the flat clause store. wasted counts words occupied by
// freed clauses; when it grows past a threshold the solver compacts
// the arena (garbageCollect) using forwarding references.
type arena struct {
	data   []uint32
	wasted uint32
}

// alloc appends a clause and returns its reference.
func (a *arena) alloc(lits []Lit, learnt bool, id int32) CRef {
	c := CRef(len(a.data))
	hdr := uint32(len(lits)) << 2
	if learnt {
		hdr |= flagLearnt
	}
	a.data = append(a.data, hdr, uint32(id), 0, 0)
	for _, l := range lits {
		a.data = append(a.data, uint32(l))
	}
	return c
}

// free retires a detached clause. The words stay in place (nothing
// references them) and are reclaimed by the next compaction.
func (a *arena) free(c CRef) {
	a.wasted += claLits + uint32(a.size(c))
}

func (a *arena) size(c CRef) int      { return int(a.data[c] >> 2) }
func (a *arena) isLearnt(c CRef) bool { return a.data[c]&flagLearnt != 0 }

func (a *arena) id(c CRef) int32 { return int32(a.data[c+claID]) }

func (a *arena) act(c CRef) float32       { return math.Float32frombits(a.data[c+claAct]) }
func (a *arena) setAct(c CRef, f float32) { a.data[c+claAct] = math.Float32bits(f) }

func (a *arena) lbd(c CRef) uint32       { return a.data[c+claLBD] }
func (a *arena) setLBD(c CRef, d uint32) { a.data[c+claLBD] = d }

func (a *arena) lit(c CRef, i int) Lit { return Lit(a.data[c+claLits+CRef(i)]) }

// lits returns the clause's literals as a slice aliasing the arena.
// Lit is int32 and arena words are uint32, so the view is a direct
// reinterpretation. The slice is invalidated by any arena alloc or
// compaction — use it transiently.
func (a *arena) lits(c CRef) []Lit {
	return unsafe.Slice((*Lit)(unsafe.Pointer(&a.data[c+claLits])), a.size(c))
}
