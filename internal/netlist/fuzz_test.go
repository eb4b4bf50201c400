package netlist

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse checks that the parser never panics, that it accepts the
// same inputs as the reference parser with equal netlists, and that
// everything it accepts survives a write/re-parse round trip. On an
// input that lexes cleanly both parsers must report the same error;
// otherwise the streaming parser may report a syntax error that
// precedes the lexical one.
func FuzzParse(f *testing.F) {
	seeds := []string{
		sampleModule,
		"module m (a, f);\ninput a;\noutput f;\nbuf (f, a);\nendmodule",
		"module m (a, f);\ninput a;\noutput f;\nassign f = a;\nendmodule",
		"module m (); endmodule",
		"module m (a); input a; and (x, a, 1'b1); endmodule",
		"/* c */ module m (a, f); // c\ninput a; output f; not (f, a); endmodule",
		"module m (a, f);\ninput a;\noutput f;\nand (f, t_0, a);\nendmodule",
		"garbage",
		"module",
		"module m (); endmodule @",
		"module m (); endmodule /* open",
		"module m (a); input a b; @ endmodule",
		"module m (a, f);\ninput a;\noutput f;\nassign f a;\nendmodule",
		"module m (a, f);\ninput a;\noutput f;\nand g1 (f a);\nendmodule",
		"module m (a, f);\ninput a;\noutput f;\nbuf (f);\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := ParseString(src)
		ref, refErr := parseStringRef(src)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("parsers disagree on %q: streaming %v, reference %v", src, err, refErr)
		}
		if err != nil {
			if _, lexErr := refTokenize(src); lexErr == nil && err.Error() != refErr.Error() {
				t.Fatalf("errors differ on %q: streaming %v, reference %v", src, err, refErr)
			}
			return
		}
		if !reflect.DeepEqual(n, ref) {
			t.Fatalf("netlists differ on %q:\nstreaming %+v\nreference %+v", src, n, ref)
		}
		text := n.String()
		n2, err := ParseString(text)
		if err != nil {
			t.Fatalf("accepted module does not re-parse: %v\ninput: %q\nwritten:\n%s", err, src, text)
		}
		if n2.NumGates() != n.NumGates() || len(n2.Inputs) != len(n.Inputs) {
			t.Fatalf("round trip changed shape for %q", src)
		}
	})
}

// FuzzParseWeights checks the weight parser for panics.
func FuzzParseWeights(f *testing.F) {
	f.Add("a 1\nb 2\n")
	f.Add("# comment\nx 0\n")
	f.Add("broken")
	f.Add("w -1")
	f.Fuzz(func(t *testing.T, src string) {
		w, err := ParseWeights(strings.NewReader(src))
		if err != nil {
			return
		}
		for name := range w.Costs {
			if w.Cost(name) < 0 {
				t.Fatalf("negative cost accepted for %q", name)
			}
		}
	})
}
