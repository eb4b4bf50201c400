package netlist

import "fmt"

// This file keeps the parser that lexed the whole input into a token
// slice before parsing, as the reference FuzzParse compares the
// streaming parser in parser.go against. It reports a lexical error
// anywhere in the input ahead of any syntax error.

// parseStringRef parses a module held in a string.
func parseStringRef(src string) (*Netlist, error) {
	toks, err := refTokenize(src)
	if err != nil {
		return nil, err
	}
	p := &refParser{toks: toks}
	return p.parseModule()
}

type refToken struct {
	text string
	line int
}

func refTokenize(src string) ([]refToken, error) {
	var toks []refToken
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			if i+1 >= len(src) {
				return nil, fmt.Errorf("netlist: line %d: unterminated block comment", line)
			}
			i += 2
		case c == '(' || c == ')' || c == ',' || c == ';' || c == '=':
			toks = append(toks, refToken{string(c), line})
			i++
		default:
			if !isIdentChar(rune(c)) {
				return nil, fmt.Errorf("netlist: line %d: unexpected character %q", line, c)
			}
			j := i
			for j < len(src) && isIdentChar(rune(src[j])) {
				j++
			}
			toks = append(toks, refToken{src[i:j], line})
			i = j
		}
	}
	return toks, nil
}

type refParser struct {
	toks []refToken
	pos  int
}

func (p *refParser) errf(format string, args ...any) error {
	line := 0
	if p.pos < len(p.toks) {
		line = p.toks[p.pos].line
	} else if len(p.toks) > 0 {
		line = p.toks[len(p.toks)-1].line
	}
	return fmt.Errorf("netlist: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *refParser) peek() (string, bool) {
	if p.pos >= len(p.toks) {
		return "", false
	}
	return p.toks[p.pos].text, true
}

func (p *refParser) next() (string, error) {
	t, ok := p.peek()
	if !ok {
		return "", p.errf("unexpected end of input")
	}
	p.pos++
	return t, nil
}

func (p *refParser) expect(want string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t != want {
		p.pos--
		return p.errf("expected %q, found %q", want, t)
	}
	return nil
}

// parseIdentList reads "a, b, c ;" style lists.
func (p *refParser) parseIdentList() ([]string, error) {
	var ids []string
	for {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		ids = append(ids, t)
		t, err = p.next()
		if err != nil {
			return nil, err
		}
		switch t {
		case ",":
			continue
		case ";":
			return ids, nil
		default:
			p.pos--
			return nil, p.errf("expected ',' or ';', found %q", t)
		}
	}
}

func (p *refParser) parseModule() (*Netlist, error) {
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	name, err := p.next()
	if err != nil {
		return nil, err
	}
	n := &Netlist{Name: name}
	// Port list (names are repeated in input/output declarations, so
	// the list itself is skipped).
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		if t == ")" {
			break
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	for {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		switch t {
		case "endmodule":
			if err := n.Validate(); err != nil {
				return nil, err
			}
			return n, nil
		case "input":
			ids, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			n.Inputs = append(n.Inputs, ids...)
		case "output":
			ids, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			n.Outputs = append(n.Outputs, ids...)
		case "wire":
			ids, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			n.Wires = append(n.Wires, ids...)
		case "assign":
			g, err := p.parseAssign()
			if err != nil {
				return nil, err
			}
			n.Gates = append(n.Gates, g)
		default:
			kind, ok := kindByName[t]
			if !ok {
				p.pos--
				return nil, p.errf("unknown construct %q", t)
			}
			g, err := p.parseGate(kind)
			if err != nil {
				return nil, err
			}
			n.Gates = append(n.Gates, g)
		}
	}
}

// parseGate reads "<kind> [inst] ( out, in, ... );".
func (p *refParser) parseGate(kind GateKind) (Gate, error) {
	g := Gate{Kind: kind}
	t, err := p.next()
	if err != nil {
		return g, err
	}
	if t != "(" {
		g.Name = t
		if err := p.expect("("); err != nil {
			return g, err
		}
	}
	var args []string
	for {
		t, err := p.next()
		if err != nil {
			return g, err
		}
		args = append(args, t)
		t, err = p.next()
		if err != nil {
			return g, err
		}
		if t == ")" {
			break
		}
		if t != "," {
			p.pos--
			return g, p.errf("expected ',' or ')', found %q", t)
		}
	}
	if err := p.expect(";"); err != nil {
		return g, err
	}
	if len(args) < 2 {
		return g, p.errf("gate %s needs an output and at least one input", kind)
	}
	g.Out = args[0]
	g.Ins = args[1:]
	return g, nil
}

// parseAssign reads "assign out = in ;" (buffer) or
// "assign out = 1'b0/1'b1 ;" (constant), the only assign forms the
// contest files use.
func (p *refParser) parseAssign() (Gate, error) {
	out, err := p.next()
	if err != nil {
		return Gate{}, err
	}
	if err := p.expect("="); err != nil {
		// '=' is not in the refToken alphabet above; accept the merged
		// refToken form "=" only if refTokenize produced it. Report cleanly.
		return Gate{}, p.errf("assign statements must be 'assign out = in;'")
	}
	in, err := p.next()
	if err != nil {
		return Gate{}, err
	}
	if err := p.expect(";"); err != nil {
		return Gate{}, err
	}
	return Gate{Kind: GateBuf, Out: out, Ins: []string{in}}, nil
}
