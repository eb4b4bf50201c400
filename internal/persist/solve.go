package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"ecopatch/internal/atomicio"
	"ecopatch/internal/cache"
	"ecopatch/internal/cnf"
	"ecopatch/internal/sat"
)

// Solve-record codec: the binary form of one cache.SolveCache entry.
// The FULL captured formula is stored, not just its hash — the
// cache's collision discipline requires a word-for-word content
// screen before a hit is served, and that screen needs the words.
//
// Layout (little-endian throughout):
//
//	u32 version (1)
//	u32 nVars
//	u32 nClauses, then nClauses x u32 clause-end prefix sums
//	u32 nLits,    then nLits    x u32 literals
//	u32 nAssumps, then nAssumps x u32 assumption literals
//	u8  status (1 = Sat, 2 = Unsat; Unknown is never persisted)
//	Sat only: u32 model length, then ceil(len/8) bitset bytes
const solveCodecVersion = 1

// Wire values of sat.Status (the in-memory iota order is an internal
// detail; pinning explicit wire values keeps old logs readable).
const (
	wireSat   = 1
	wireUnsat = 2
)

// ErrBadRecord reports a CRC-valid record whose payload does not
// decode to a structurally valid solve entry. Callers skip such
// records (and count them) rather than replaying them.
var ErrBadRecord = errors.New("persist: malformed solve record")

// EncodeSolve renders one solve-cache entry. The inputs are read, not
// retained.
func EncodeSolve(f *cnf.Formula, assumps []sat.Lit, v cache.Verdict) []byte {
	nVars, lits, ends := f.Raw()
	size := 4*5 + 4*len(ends) + 4*len(lits) + 4*len(assumps) + 1
	if v.Status == sat.Sat {
		size += 4 + (len(v.Model)+7)/8
	}
	buf := make([]byte, 0, size)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u32(solveCodecVersion)
	u32(uint32(nVars))
	u32(uint32(len(ends)))
	for _, e := range ends {
		u32(uint32(e))
	}
	u32(uint32(len(lits)))
	for _, l := range lits {
		u32(uint32(l))
	}
	u32(uint32(len(assumps)))
	for _, a := range assumps {
		u32(uint32(a))
	}
	switch v.Status {
	case sat.Sat:
		buf = append(buf, wireSat)
		u32(uint32(len(v.Model)))
		var w byte
		for i, b := range v.Model {
			if b {
				w |= 1 << (i % 8)
			}
			if i%8 == 7 {
				buf = append(buf, w)
				w = 0
			}
		}
		if len(v.Model)%8 != 0 {
			buf = append(buf, w)
		}
	case sat.Unsat:
		buf = append(buf, wireUnsat)
	default:
		// Unknown is never persisted (mirrors SolveCache.Insert); an
		// empty payload decodes as ErrBadRecord and is skipped.
		return nil
	}
	return buf
}

// DecodeSolve parses and validates one solve record. Every structural
// invariant the cache and LoadInto rely on is checked here — clause
// ends monotone and consistent with the literal count, literals and
// assumptions within the variable range, a full model on Sat — so a
// decoded entry can be inserted and later replayed without any
// further trust in the bytes.
func DecodeSolve(b []byte) (*cnf.Formula, []sat.Lit, cache.Verdict, error) {
	bad := func(format string, args ...any) (*cnf.Formula, []sat.Lit, cache.Verdict, error) {
		return nil, nil, cache.Verdict{}, fmt.Errorf("%w: "+format, append([]any{ErrBadRecord}, args...)...)
	}
	pos := 0
	u32 := func() (uint32, bool) {
		if pos+4 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b[pos:])
		pos += 4
		return v, true
	}
	// Each count is bounded by the bytes that must follow it, so a
	// corrupt length cannot force a huge allocation.
	count := func(elemBytes int) (int, bool) {
		v, ok := u32()
		if !ok || int64(v)*int64(elemBytes) > int64(len(b)-pos) {
			return 0, false
		}
		return int(v), true
	}

	ver, ok := u32()
	if !ok || ver != solveCodecVersion {
		return bad("version %d", ver)
	}
	nVarsU, ok := u32()
	if !ok || nVarsU > 1<<30 {
		return bad("variable count")
	}
	nVars := int(nVarsU)
	nEnds, ok := count(4)
	if !ok {
		return bad("clause count")
	}
	ends := make([]int32, nEnds)
	prev := int32(0)
	for i := range ends {
		e, ok := u32()
		if !ok || int32(e) < prev {
			return bad("clause ends not monotone")
		}
		ends[i] = int32(e)
		prev = ends[i]
	}
	nLits, ok := count(4)
	if !ok {
		return bad("literal count")
	}
	if nEnds > 0 && int(ends[nEnds-1]) != nLits || nEnds == 0 && nLits != 0 {
		return bad("clause ends disagree with literal count")
	}
	lits := make([]sat.Lit, nLits)
	for i := range lits {
		l, ok := u32()
		if !ok || int(sat.Lit(l).Var()) >= nVars {
			return bad("literal out of range")
		}
		lits[i] = sat.Lit(l)
	}
	nAssumps, ok := count(4)
	if !ok {
		return bad("assumption count")
	}
	assumps := make([]sat.Lit, nAssumps)
	for i := range assumps {
		a, ok := u32()
		if !ok || int(sat.Lit(a).Var()) >= nVars {
			return bad("assumption out of range")
		}
		assumps[i] = sat.Lit(a)
	}
	if pos >= len(b) {
		return bad("missing status")
	}
	status := b[pos]
	pos++
	v := cache.Verdict{}
	switch status {
	case wireSat:
		v.Status = sat.Sat
		nModel, ok := count(0)
		if !ok || nModel < nVars {
			// An incomplete model could not reconstruct literals on a
			// hit; SolveCache.Insert enforces the same bound.
			return bad("model shorter than variable count")
		}
		nBytes := (nModel + 7) / 8
		if pos+nBytes > len(b) {
			return bad("truncated model")
		}
		v.Model = make([]bool, nModel)
		for i := range v.Model {
			v.Model[i] = b[pos+i/8]&(1<<(i%8)) != 0
		}
		pos += nBytes
	case wireUnsat:
		v.Status = sat.Unsat
	default:
		return bad("status %d", status)
	}
	if pos != len(b) {
		return bad("%d trailing bytes", len(b)-pos)
	}
	return cnf.FromRaw(nVars, lits, ends), assumps, v, nil
}

// SaveSolveCacheFile writes every live entry of sc to path as a
// single-file record stream (same framing and codec as the segment
// log), atomically via temp+rename — a crash mid-save leaves the
// previous file intact. Returns the entry count written. ecobench
// -cache-file uses this to keep a warm benchmark cache between runs.
func SaveSolveCacheFile(path string, sc *cache.SolveCache) (int, error) {
	n := 0
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		var buf []byte
		var werr error
		sc.Range(func(f *cnf.Formula, assumps []sat.Lit, v cache.Verdict) bool {
			payload := EncodeSolve(f, assumps, v)
			if payload == nil {
				return true
			}
			buf = frame(buf, RecSolve, payload)
			if _, werr = bw.Write(buf); werr != nil {
				return false
			}
			n++
			return true
		})
		if werr != nil {
			return werr
		}
		return bw.Flush()
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// LoadSolveCacheFile inserts every intact entry of a cache file into
// sc. A missing file is an empty cache, not an error; a torn tail or
// individually corrupt records are skipped with the same discipline
// as segment recovery. Returns the number of entries restored and the
// number of records skipped (torn tail or failed decode).
func LoadSolveCacheFile(path string, sc *cache.SolveCache) (restored, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	_, _, torn, err := ScanRecords(bufio.NewReader(f), func(typ RecordType, payload []byte) {
		if typ != RecSolve {
			skipped++
			return
		}
		fr, assumps, v, derr := DecodeSolve(payload)
		if derr != nil {
			skipped++
			return
		}
		sc.Insert(fr, assumps, v)
		restored++
	})
	if err != nil {
		return restored, skipped, fmt.Errorf("persist: %w", err)
	}
	if torn {
		skipped++
	}
	return restored, skipped, nil
}
