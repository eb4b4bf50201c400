package aig

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLitHelpers(t *testing.T) {
	l := MkLit(7, true)
	if l.Node() != 7 || !l.Compl() {
		t.Fatalf("MkLit roundtrip: %v", l)
	}
	if l.Not().Compl() || l.Not().Node() != 7 {
		t.Fatalf("Not: %v", l.Not())
	}
	if l.Regular().Compl() {
		t.Fatal("Regular kept complement")
	}
	if l.XorCompl(true) != l.Not() || l.XorCompl(false) != l {
		t.Fatal("XorCompl wrong")
	}
	if ConstTrue != ConstFalse.Not() {
		t.Fatal("constants inconsistent")
	}
	if MkLit(3, false).String() != "n3" || MkLit(3, true).String() != "!n3" {
		t.Fatal("String wrong")
	}
}

func TestConstantFolding(t *testing.T) {
	g := New()
	a := g.AddPI("a")
	cases := []struct {
		got, want Lit
		name      string
	}{
		{g.And(ConstFalse, a), ConstFalse, "0&a"},
		{g.And(a, ConstFalse), ConstFalse, "a&0"},
		{g.And(ConstTrue, a), a, "1&a"},
		{g.And(a, ConstTrue), a, "a&1"},
		{g.And(a, a), a, "a&a"},
		{g.And(a, a.Not()), ConstFalse, "a&!a"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	if g.NumAnds() != 0 {
		t.Fatalf("folding created nodes: %d", g.NumAnds())
	}
}

func TestStructuralHashing(t *testing.T) {
	g := New()
	a, b := g.AddPI("a"), g.AddPI("b")
	x := g.And(a, b)
	y := g.And(b, a)
	if x != y {
		t.Fatal("commuted AND not hashed")
	}
	if g.NumAnds() != 1 {
		t.Fatalf("NumAnds = %d", g.NumAnds())
	}
	_ = g.Or(a, b)
	n := g.NumAnds()
	_ = g.Or(b, a)
	if g.NumAnds() != n {
		t.Fatal("commuted OR not hashed")
	}
}

func TestGateOperators(t *testing.T) {
	g := New()
	a, b, s := g.AddPI("a"), g.AddPI("b"), g.AddPI("s")
	and := g.And(a, b)
	or := g.Or(a, b)
	nand := g.Nand(a, b)
	nor := g.Nor(a, b)
	xor := g.Xor(a, b)
	xnor := g.Xnor(a, b)
	mux := g.Mux(s, a, b)
	impl := g.Implies(a, b)
	for _, out := range []struct {
		name string
		l    Lit
		f    func(av, bv, sv bool) bool
	}{
		{"and", and, func(av, bv, sv bool) bool { return av && bv }},
		{"or", or, func(av, bv, sv bool) bool { return av || bv }},
		{"nand", nand, func(av, bv, sv bool) bool { return !(av && bv) }},
		{"nor", nor, func(av, bv, sv bool) bool { return !(av || bv) }},
		{"xor", xor, func(av, bv, sv bool) bool { return av != bv }},
		{"xnor", xnor, func(av, bv, sv bool) bool { return av == bv }},
		{"mux", mux, func(av, bv, sv bool) bool {
			if sv {
				return av
			}
			return bv
		}},
		{"implies", impl, func(av, bv, sv bool) bool { return !av || bv }},
	} {
		for m := 0; m < 8; m++ {
			in := []bool{m&1 == 1, m&2 == 2, m&4 == 4}
			got := g.EvalLit(out.l, in)
			want := out.f(in[0], in[1], in[2])
			if got != want {
				t.Errorf("%s(%v): got %v, want %v", out.name, in, got, want)
			}
		}
	}
}

func TestAndNOrN(t *testing.T) {
	g := New()
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	if g.AndN() != ConstTrue || g.OrN() != ConstFalse {
		t.Fatal("empty folds wrong")
	}
	all := g.AndN(a, b, c)
	any := g.OrN(a, b, c)
	for m := 0; m < 8; m++ {
		in := []bool{m&1 == 1, m&2 == 2, m&4 == 4}
		if g.EvalLit(all, in) != (in[0] && in[1] && in[2]) {
			t.Fatalf("AndN(%v)", in)
		}
		if g.EvalLit(any, in) != (in[0] || in[1] || in[2]) {
			t.Fatalf("OrN(%v)", in)
		}
	}
}

func TestEvalFullAdder(t *testing.T) {
	g := New()
	a, b, cin := g.AddPI("a"), g.AddPI("b"), g.AddPI("cin")
	sum := g.Xor(g.Xor(a, b), cin)
	cout := g.Or(g.And(a, b), g.And(cin, g.Xor(a, b)))
	g.AddPO("sum", sum)
	g.AddPO("cout", cout)
	for m := 0; m < 8; m++ {
		in := []bool{m&1 == 1, m&2 == 2, m&4 == 4}
		out := g.Eval(in)
		n := 0
		for _, v := range in {
			if v {
				n++
			}
		}
		if out[0] != (n%2 == 1) {
			t.Fatalf("sum(%v) = %v", in, out[0])
		}
		if out[1] != (n >= 2) {
			t.Fatalf("cout(%v) = %v", in, out[1])
		}
	}
}

func TestSimWordsMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New()
	var ins []Lit
	for i := 0; i < 8; i++ {
		ins = append(ins, g.AddPI("x"))
	}
	// Random structure.
	pool := append([]Lit(nil), ins...)
	for i := 0; i < 40; i++ {
		a := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		b := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		pool = append(pool, g.And(a, b))
	}
	g.AddPO("f", pool[len(pool)-1])
	g.AddPO("g", pool[len(pool)-3])

	words := g.RandomSimWords(rng)
	simmed := g.SimWords(words)
	for bit := 0; bit < 64; bit++ {
		in := make([]bool, len(ins))
		for i := range in {
			in[i] = words[i]>>uint(bit)&1 == 1
		}
		out := g.Eval(in)
		for o := 0; o < g.NumPOs(); o++ {
			w := WordOf(simmed, g.PO(o))
			if (w>>uint(bit)&1 == 1) != out[o] {
				t.Fatalf("bit %d PO %d mismatch", bit, o)
			}
		}
	}
}

func TestConeAndSupport(t *testing.T) {
	g := New()
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	_ = c
	x := g.And(a, b)
	y := g.And(x, a.Not())
	if got := g.ConeSize([]Lit{y}); got != 2 {
		t.Fatalf("ConeSize = %d, want 2", got)
	}
	sup := g.SupportPIs([]Lit{y})
	if len(sup) != 2 {
		t.Fatalf("support = %v, want {0,1}", sup)
	}
	for _, s := range sup {
		if s != 0 && s != 1 {
			t.Fatalf("unexpected support PI %d", s)
		}
	}
	// Cone of a PI only contains the PI.
	if got := g.ConeSize([]Lit{a}); got != 0 {
		t.Fatalf("PI cone size = %d", got)
	}
}

func TestLevels(t *testing.T) {
	g := New()
	a, b := g.AddPI("a"), g.AddPI("b")
	x := g.And(a, b)
	y := g.And(x, b.Not())
	lv := g.Levels()
	if lv[a.Node()] != 0 || lv[b.Node()] != 0 {
		t.Fatal("PI levels must be 0")
	}
	if lv[x.Node()] != 1 || lv[y.Node()] != 2 {
		t.Fatalf("levels wrong: %v", lv)
	}
}

func TestFanoutCounts(t *testing.T) {
	g := New()
	a, b := g.AddPI("a"), g.AddPI("b")
	x := g.And(a, b)
	y := g.And(x, a.Not())
	g.AddPO("y", y)
	fc := g.FanoutCounts()
	if fc[a.Node()] != 2 {
		t.Fatalf("fanout(a) = %d, want 2", fc[a.Node()])
	}
	if fc[x.Node()] != 1 || fc[y.Node()] != 1 {
		t.Fatalf("fanouts wrong: %v", fc)
	}
}

func TestTransferIdentityPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := randomAIG(rng, 6, 30, 2)
	dst := New()
	m := IdentityMap(dst, src)
	outs := Transfer(dst, src, m, []Lit{src.PO(0), src.PO(1)})
	for trial := 0; trial < 100; trial++ {
		in := make([]bool, src.NumPIs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		want := src.Eval(in)
		for i, o := range outs {
			if got := dst.EvalLit(o, in); got != want[i] {
				t.Fatalf("transfer output %d differs on %v", i, in)
			}
		}
	}
}

func TestClone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := randomAIG(rng, 5, 20, 2)
	cp := Clone(src)
	if cp.NumPIs() != src.NumPIs() || cp.NumPOs() != src.NumPOs() {
		t.Fatal("clone shape mismatch")
	}
	if cp.PIName(0) != src.PIName(0) || cp.POName(0) != src.POName(0) {
		t.Fatal("clone names mismatch")
	}
	for trial := 0; trial < 64; trial++ {
		in := make([]bool, src.NumPIs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		w, g2 := src.Eval(in), cp.Eval(in)
		for i := range w {
			if w[i] != g2[i] {
				t.Fatalf("clone output %d differs", i)
			}
		}
	}
}

func TestCofactor(t *testing.T) {
	g := New()
	a, b := g.AddPI("a"), g.AddPI("b")
	f := g.Xor(a, b)
	dst := New()
	m := IdentityMap(dst, g)
	pos := Cofactor(dst, g, m, map[int]bool{0: true}, []Lit{f})  // a=1: f = !b
	neg := Cofactor(dst, g, m, map[int]bool{0: false}, []Lit{f}) // a=0: f = b
	for _, bv := range []bool{false, true} {
		in := []bool{false, bv}
		if dst.EvalLit(pos[0], in) != !bv {
			t.Fatalf("positive cofactor wrong for b=%v", bv)
		}
		if dst.EvalLit(neg[0], in) != bv {
			t.Fatalf("negative cofactor wrong for b=%v", bv)
		}
	}
}

// randomAIG builds a random AIG for property tests.
func randomAIG(rng *rand.Rand, nPI, nAnd, nPO int) *AIG {
	g := New()
	pool := []Lit{ConstTrue}
	for i := 0; i < nPI; i++ {
		pool = append(pool, g.AddPI("x"))
	}
	for i := 0; i < nAnd; i++ {
		a := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		b := pool[rng.Intn(len(pool))].XorCompl(rng.Intn(2) == 1)
		pool = append(pool, g.And(a, b))
	}
	for o := 0; o < nPO; o++ {
		g.AddPO("o", pool[len(pool)-1-o].XorCompl(rng.Intn(2) == 1))
	}
	return g
}

func TestPropertyDeMorgan(t *testing.T) {
	// Property: for random a, b edges in a random AIG,
	// !(a AND b) == (!a OR !b) as evaluated functions.
	f := func(seed int64, mask uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAIG(rng, 4, 10, 1)
		pool := []Lit{ConstTrue, g.PI(0), g.PI(1), g.PI(2), g.PI(3), g.PO(0)}
		a := pool[int(mask)%len(pool)]
		b := pool[int(mask>>4)%len(pool)]
		nand := g.And(a, b).Not()
		orn := g.Or(a.Not(), b.Not())
		for m := 0; m < 16; m++ {
			in := []bool{m&1 == 1, m&2 == 2, m&4 == 4, m&8 == 8}
			if g.EvalLit(nand, in) != g.EvalLit(orn, in) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTransferComposes(t *testing.T) {
	// Property: transferring through an intermediate AIG preserves
	// functionality.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomAIG(rng, 5, 25, 1)
		mid := New()
		m1 := IdentityMap(mid, src)
		r1 := Transfer(mid, src, m1, []Lit{src.PO(0)})
		dst := New()
		m2 := IdentityMap(dst, mid)
		r2 := Transfer(dst, mid, m2, r1)
		for trial := 0; trial < 32; trial++ {
			in := make([]bool, 5)
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
			if src.Eval(in)[0] != dst.EvalLit(r2[0], in) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPIIndexAndAccessors(t *testing.T) {
	g := New()
	a, b := g.AddPI("a"), g.AddPI("b")
	x := g.And(a, b)
	g.AddPO("x", x)
	if g.PIIndex(a.Node()) != 0 || g.PIIndex(b.Node()) != 1 {
		t.Fatal("PIIndex wrong")
	}
	if g.PIIndex(x.Node()) != -1 {
		t.Fatal("PIIndex of AND node should be -1")
	}
	if !g.IsAnd(x.Node()) || g.IsAnd(a.Node()) || !g.IsPI(a.Node()) || !g.IsConst(0) {
		t.Fatal("kind predicates wrong")
	}
	f0, f1 := g.Fanins(x.Node())
	if f0.Regular() != a && f1.Regular() != a {
		t.Fatal("fanins missing a")
	}
	g.SetPO(0, x.Not())
	if g.PO(0) != x.Not() {
		t.Fatal("SetPO failed")
	}
	if g.POName(0) != "x" || g.PIName(1) != "b" {
		t.Fatal("names wrong")
	}
}
