package netlist

import (
	"strings"
	"testing"

	"ecopatch/internal/aig"
	"ecopatch/internal/cec"
)

const sampleModule = `
// full adder plus an ECO target point
module fa (a, b, cin, sum, cout);
input a, b, cin;
output sum, cout;
wire w1, w2, w3;
xor g1 (w1, a, b);
xor g2 (sum, w1, cin);
and g3 (w2, a, b);
and g4 (w3, w1, t_0);
or  g5 (cout, w2, w3);
endmodule
`

func TestParseSample(t *testing.T) {
	n, err := ParseString(sampleModule)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "fa" {
		t.Fatalf("name = %q", n.Name)
	}
	if len(n.Inputs) != 3 || len(n.Outputs) != 2 || len(n.Wires) != 3 {
		t.Fatalf("decl counts wrong: %d %d %d", len(n.Inputs), len(n.Outputs), len(n.Wires))
	}
	if n.NumGates() != 5 {
		t.Fatalf("gates = %d", n.NumGates())
	}
	if got := n.Targets(); len(got) != 1 || got[0] != "t_0" {
		t.Fatalf("targets = %v", got)
	}
	g := n.Gates[0]
	if g.Kind != GateXor || g.Name != "g1" || g.Out != "w1" || len(g.Ins) != 2 {
		t.Fatalf("gate 0 parsed wrong: %+v", g)
	}
}

func TestParseComments(t *testing.T) {
	src := `
module m (a, f); /* block
comment */ input a; // line comment
output f;
buf (f, a);
endmodule`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumGates() != 1 || n.Gates[0].Kind != GateBuf {
		t.Fatalf("parsed: %+v", n)
	}
}

func TestParseAssignAndConstants(t *testing.T) {
	src := `
module m (a, f, g2);
input a;
output f, g2;
assign f = a;
and (g2, a, 1'b1);
endmodule`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Gates[0].Kind != GateBuf || n.Gates[0].Ins[0] != "a" {
		t.Fatalf("assign not parsed as buf: %+v", n.Gates[0])
	}
	res, err := ToAIG(n)
	if err != nil {
		t.Fatal(err)
	}
	out := res.G.Eval([]bool{true})
	if !out[0] || !out[1] {
		t.Fatalf("constant handling wrong: %v", out)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                       // empty
		"module m (a); input a;", // missing endmodule
		"module m (a); input a; foo (x, a); endmodule",                               // unknown gate
		"module m (a); input a; and (x); endmodule",                                  // arity
		"module m (a,f); input a; output f; not (f, a, a); endmodule",                // not arity
		"module m (a,f); input a; output f; and (f, a, b); and (f, a, a); endmodule", // double drive
	}
	for i, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestParseErrorOrder pins which error the streaming parser reports:
// the first one it reaches, so a syntax error ahead of a lexical one
// wins, and a lexical error after endmodule still rejects the input.
func TestParseErrorOrder(t *testing.T) {
	cases := []struct{ src, want string }{
		{"module m (a);\nfoo a;\n@\nendmodule", `netlist: line 2: unknown construct "foo"`},
		{"module m (a);\n@ foo a;\nendmodule", `netlist: line 2: unexpected character '@'`},
		{"module m ();\nendmodule\n/* open", "netlist: line 3: unterminated block comment"},
	}
	for _, c := range cases {
		_, err := ParseString(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%q: got error %v, want %s", c.src, err, c.want)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	src := `
module m (a, f);
input a;
output f;
wire x, y;
and (x, y, a);
and (y, x, a);
and (f, x, y);
endmodule`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ToAIG(n); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestUndrivenNonTargetRejected(t *testing.T) {
	src := `
module m (a, f);
input a;
output f;
and (f, a, mystery);
endmodule`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ToAIG(n); err == nil {
		t.Fatal("undriven non-target signal accepted")
	}
}

func TestToAIGFullAdderSemantics(t *testing.T) {
	src := `
module fa (a, b, cin, sum, cout);
input a, b, cin;
output sum, cout;
wire w1, w2, w3;
xor g1 (w1, a, b);
xor g2 (sum, w1, cin);
and g3 (w2, a, b);
and g4 (w3, w1, cin);
or  g5 (cout, w2, w3);
endmodule`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ToAIG(n)
	if err != nil {
		t.Fatal(err)
	}
	g := res.G
	if g.NumPIs() != 3 || g.NumPOs() != 2 {
		t.Fatalf("shape: %d PIs %d POs", g.NumPIs(), g.NumPOs())
	}
	for m := 0; m < 8; m++ {
		in := []bool{m&1 == 1, m&2 == 2, m&4 == 4}
		out := g.Eval(in)
		ones := 0
		for _, v := range in {
			if v {
				ones++
			}
		}
		if out[0] != (ones%2 == 1) || out[1] != (ones >= 2) {
			t.Fatalf("adder semantics wrong at %v: %v", in, out)
		}
	}
}

func TestGatesOutOfOrder(t *testing.T) {
	// g2 reads w1 before g1 defines it: must still convert.
	src := `
module m (a, b, f);
input a, b;
output f;
wire w1;
and g2 (f, w1, b);
or  g1 (w1, a, b);
endmodule`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ToAIG(n)
	if err != nil {
		t.Fatal(err)
	}
	// f = (a|b) & b = b
	for m := 0; m < 4; m++ {
		in := []bool{m&1 == 1, m&2 == 2}
		if res.G.Eval(in)[0] != in[1] {
			t.Fatalf("out-of-order conversion wrong at %v", in)
		}
	}
}

func TestMultiInputGates(t *testing.T) {
	src := `
module m (a, b, c, d, f, g2, h);
input a, b, c, d;
output f, g2, h;
and (f, a, b, c, d);
nor (g2, a, b, c);
xor (h, a, b, c);
endmodule`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ToAIG(n)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 16; m++ {
		in := []bool{m&1 == 1, m&2 == 2, m&4 == 4, m&8 == 8}
		out := res.G.Eval(in)
		if out[0] != (in[0] && in[1] && in[2] && in[3]) {
			t.Fatalf("and4 wrong at %v", in)
		}
		if out[1] != !(in[0] || in[1] || in[2]) {
			t.Fatalf("nor3 wrong at %v", in)
		}
		if out[2] != (in[0] != in[1]) != in[2] {
			// xor over three inputs: parity
		}
		parity := in[0] != in[1]
		parity = parity != in[2]
		if out[2] != parity {
			t.Fatalf("xor3 wrong at %v", in)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	n1, err := ParseString(sampleModule)
	if err != nil {
		t.Fatal(err)
	}
	text := n1.String()
	n2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if n2.Name != n1.Name || n2.NumGates() != n1.NumGates() {
		t.Fatalf("round trip changed shape")
	}
	// Semantics: substitute the target with a constant in both and
	// compare by evaluation.
	r1, err := ToAIG(n1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ToAIG(n2)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 16; m++ {
		in := []bool{m&1 == 1, m&2 == 2, m&4 == 4, m&8 == 8}
		o1 := r1.G.Eval(in)
		o2 := r2.G.Eval(in)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("round trip changed semantics at %v", in)
			}
		}
	}
}

func TestFromAIGRoundTrip(t *testing.T) {
	// Build an AIG, convert to netlist, parse back, reconvert, CEC.
	g := aig.New()
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	f := g.Or(g.And(a, b.Not()), g.Xor(b, c))
	h := g.And(f, c).Not()
	g.AddPO("f", f)
	g.AddPO("h", h)

	n := FromAIG(g, "roundtrip")
	if err := n.Validate(); err != nil {
		t.Fatalf("generated netlist invalid: %v\n%s", err, n)
	}
	n2, err := ParseString(n.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, n)
	}
	res, err := ToAIG(n2)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := cec.CheckAIGs(g, res.G)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Equivalent {
		t.Fatalf("FromAIG round trip not equivalent; cex %v", eq.Counterexample)
	}
}

func TestFromAIGConstantOutput(t *testing.T) {
	g := aig.New()
	g.AddPI("a")
	g.AddPO("zero", aig.ConstFalse)
	g.AddPO("one", aig.ConstTrue)
	n := FromAIG(g, "consts")
	n2, err := ParseString(n.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, n)
	}
	res, err := ToAIG(n2)
	if err != nil {
		t.Fatal(err)
	}
	out := res.G.Eval([]bool{true})
	if out[0] != false || out[1] != true {
		t.Fatalf("constant outputs wrong: %v", out)
	}
}

func TestWeightsParse(t *testing.T) {
	src := `
# comment
w1 10
w2 0

// another comment
t_0 99999
`
	w, err := ParseWeights(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if w.Cost("w1") != 10 || w.Cost("w2") != 0 || w.Cost("t_0") != 99999 {
		t.Fatalf("costs wrong: %+v", w.Costs)
	}
	if w.Cost("unknown") != DefaultWeight {
		t.Fatal("default weight wrong")
	}
}

func TestWeightsErrors(t *testing.T) {
	for i, src := range []string{"w1", "w1 x", "w1 -3", "a b c"} {
		if _, err := ParseWeights(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	w := NewWeights()
	w.Set("a", 5)
	w.Set("b", 7)
	var sb strings.Builder
	if err := WriteWeights(&sb, w); err != nil {
		t.Fatal(err)
	}
	w2, err := ParseWeights(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if w2.Cost("a") != 5 || w2.Cost("b") != 7 {
		t.Fatalf("round trip wrong: %+v", w2.Costs)
	}
}

func TestTargetsSortedNumerically(t *testing.T) {
	src := `
module m (a, f);
input a;
output f;
wire w1, w2;
and (w1, t_10, t_2);
and (w2, t_1, w1);
and (f, w2, a);
endmodule`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	got := n.Targets()
	want := []string{"t_1", "t_2", "t_10"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("targets = %v, want %v", got, want)
	}
}

func TestDffParsingAndValidation(t *testing.T) {
	n, err := ParseString(`
module seq (d, q);
input d;
output q;
wire s;
dff (s, d);
buf (q, s);
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Gates[0].Kind != GateDff {
		t.Fatalf("kind = %v", n.Gates[0].Kind)
	}
	if _, err := ToAIG(n); err == nil {
		t.Fatal("ToAIG must reject sequential netlists")
	}
	// Round trip keeps the dff.
	n2, err := ParseString(n.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, n)
	}
	if n2.Gates[0].Kind != GateDff {
		t.Fatal("dff lost in round trip")
	}
	// Arity enforced.
	if _, err := ParseString(`
module m (d, q);
input d;
output q;
dff (q, d, d);
endmodule`); err == nil {
		t.Fatal("dff with two inputs accepted")
	}
}

func TestDrivenSignals(t *testing.T) {
	n, err := ParseString(sampleModule)
	if err != nil {
		t.Fatal(err)
	}
	d := n.DrivenSignals()
	for _, want := range []string{"a", "b", "cin", "w1", "sum", "cout"} {
		if !d[want] {
			t.Errorf("driven set missing %q", want)
		}
	}
	if d["t_0"] {
		t.Error("target wrongly reported driven")
	}
}
