package persist

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// Payloads of retired RecSolve records, as the solve-cache codec
// wrote them: a Sat entry with its model and an Unsat entry over the
// same formula. Old data dirs still hold such frames, so they stay in
// the seed corpus as opaque payloads.
const (
	retiredSolveSat   = "0100000003000000020000000200000003000000030000000000000003000000040000000100000001000000010300000005"
	retiredSolveUnsat = "0100000003000000020000000200000003000000030000000000000003000000040000000000000002"
)

// FuzzPersistDecode feeds arbitrary bytes through the recovery scan
// and asserts the invariants a crashed daemon relies on: recovery
// never panics, never errors, keeps a valid prefix that lies within
// the input, and replays only whole frames.
func FuzzPersistDecode(f *testing.F) {
	solveSat, err := hex.DecodeString(retiredSolveSat)
	if err != nil {
		f.Fatal(err)
	}
	solveUnsat, err := hex.DecodeString(retiredSolveUnsat)
	if err != nil {
		f.Fatal(err)
	}
	// Seed 1: a valid two-record log (one Sat solve, one job record).
	valid := frame(nil, RecSolve, solveSat)
	valid = append(valid, frame(nil, RecJob, []byte(`{"id":"j1","state":"done"}`))...)
	f.Add(valid)

	// Seed 2: truncations at interesting boundaries.
	for _, cut := range []int{0, 1, 3, 4, 7, 8, 9, len(valid) / 2, len(valid) - 1} {
		if cut <= len(valid) {
			f.Add(append([]byte(nil), valid[:cut]...))
		}
	}
	// Seed 3: bit flips in header, CRC, and body regions.
	for _, i := range []int{0, 2, 4, 6, 8, 12, len(valid) - 2} {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x80
		f.Add(mut)
	}
	// Seed 4: a frame whose declared length is huge.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})
	// Seed 5: an Unsat solve record and an empty payload.
	f.Add(frame(nil, RecSolve, solveUnsat))
	f.Add(frame(nil, RecSolve, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		var replayed, replayedBytes int64
		n, validOff, torn, err := scanRecords(bytes.NewReader(data), func(typ RecordType, payload []byte) {
			replayed++
			replayedBytes += headerBytes + 1 + int64(len(payload))
		})
		if err != nil {
			t.Fatalf("scanRecords returned error on arbitrary bytes: %v", err)
		}
		// validOff is the truncation point recovery would keep: it must
		// lie within the input and cover at least the minimum frame size
		// (8-byte header + 1 type byte) per intact record.
		if validOff > int64(len(data)) {
			t.Fatalf("valid offset %d beyond input length %d", validOff, len(data))
		}
		if validOff < n*(headerBytes+1) {
			t.Fatalf("valid offset %d too small for %d records", validOff, n)
		}
		// Every replayed record is one whole frame, and together they
		// are exactly the kept prefix.
		if replayed != n || replayedBytes != validOff {
			t.Fatalf("replayed %d records in %d bytes, scan reports %d in %d", replayed, replayedBytes, n, validOff)
		}
		if torn && len(data) == 0 {
			t.Fatalf("empty input reported a torn tail")
		}
	})
}
