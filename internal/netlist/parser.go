package netlist

import (
	"fmt"
	"io"
	"unicode"
)

// Parse reads one module in the contest's structural-Verilog subset.
func Parse(r io.Reader) (*Netlist, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	return ParseString(string(data))
}

// ParseString parses a module held in a string. Tokens are lexed on
// demand, so the parser holds one token at a time, not the whole
// token stream. A lexical error is reported when the parser reaches
// it: a syntax error earlier in the input is reported first. Text
// after endmodule must still lex.
func ParseString(src string) (*Netlist, error) {
	p := &parser{lx: lexer{src: src, line: 1}}
	return p.parseModule()
}

type token struct {
	text string
	line int
}

// lexer splits the source into tokens one at a time. A lexical error
// is sticky: every later call returns it again.
type lexer struct {
	src      string
	i        int
	line     int
	lastLine int // line of the last token returned, 0 before the first
	err      error
}

// next returns the next token; ok is false at the end of the input.
func (lx *lexer) next() (t token, ok bool, err error) {
	if lx.err != nil {
		return token{}, false, lx.err
	}
	src := lx.src
	for lx.i < len(src) {
		c := src[lx.i]
		switch {
		case c == '\n':
			lx.line++
			lx.i++
		case c == ' ' || c == '\t' || c == '\r':
			lx.i++
		case c == '/' && lx.i+1 < len(src) && src[lx.i+1] == '/':
			for lx.i < len(src) && src[lx.i] != '\n' {
				lx.i++
			}
		case c == '/' && lx.i+1 < len(src) && src[lx.i+1] == '*':
			lx.i += 2
			for lx.i+1 < len(src) && !(src[lx.i] == '*' && src[lx.i+1] == '/') {
				if src[lx.i] == '\n' {
					lx.line++
				}
				lx.i++
			}
			if lx.i+1 >= len(src) {
				lx.err = fmt.Errorf("netlist: line %d: unterminated block comment", lx.line)
				return token{}, false, lx.err
			}
			lx.i += 2
		case c == '(' || c == ')' || c == ',' || c == ';' || c == '=':
			lx.i++
			return lx.emit(src[lx.i-1 : lx.i]), true, nil
		default:
			if !isIdentChar(rune(c)) {
				lx.err = fmt.Errorf("netlist: line %d: unexpected character %q", lx.line, c)
				return token{}, false, lx.err
			}
			j := lx.i
			for j < len(src) && isIdentChar(rune(src[j])) {
				j++
			}
			t := lx.emit(src[lx.i:j])
			lx.i = j
			return t, true, nil
		}
	}
	return token{}, false, nil
}

func (lx *lexer) emit(text string) token {
	lx.lastLine = lx.line
	return token{text, lx.line}
}

func isIdentChar(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) ||
		c == '_' || c == '\'' || c == '[' || c == ']' || c == '\\' || c == '.' || c == '$'
}

// parser reads tokens from the lexer with one token of pushback: tok
// is the token after the last one consumed when held is set.
type parser struct {
	lx   lexer
	tok  token
	held bool
}

// errf reports a syntax error at the line of the next unread token,
// or of the last token at the end of the input. A lexical error met
// while looking for that line is returned instead.
func (p *parser) errf(format string, args ...any) error {
	if _, _, err := p.peek(); err != nil {
		return err
	}
	line := p.lx.lastLine
	if p.held {
		line = p.tok.line
	}
	return fmt.Errorf("netlist: line %d: %s", line, fmt.Sprintf(format, args...))
}

// peek returns the next token without consuming it; ok is false at
// the end of the input.
func (p *parser) peek() (t string, ok bool, err error) {
	if !p.held {
		p.tok, p.held, err = p.lx.next()
		if err != nil {
			return "", false, err
		}
	}
	return p.tok.text, p.held, nil
}

func (p *parser) next() (string, error) {
	t, ok, err := p.peek()
	if err != nil {
		return "", err
	}
	if !ok {
		return "", p.errf("unexpected end of input")
	}
	p.held = false
	return t, nil
}

// unread pushes back the token next just returned.
func (p *parser) unread() { p.held = true }

func (p *parser) expect(want string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t != want {
		p.unread()
		return p.errf("expected %q, found %q", want, t)
	}
	return nil
}

// parseIdentList reads "a, b, c ;" style lists.
func (p *parser) parseIdentList() ([]string, error) {
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
			p.unread()
			return nil, p.errf("expected ',' or ';', found %q", t)
		}
	}
}

func (p *parser) parseModule() (*Netlist, error) {
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
			// Whatever follows is ignored, but it must lex.
			for {
				_, ok, err := p.lx.next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
			}
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
				p.unread()
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
func (p *parser) parseGate(kind GateKind) (Gate, error) {
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
			p.unread()
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
func (p *parser) parseAssign() (Gate, error) {
	out, err := p.next()
	if err != nil {
		return Gate{}, err
	}
	if err := p.expect("="); err != nil {
		// Any other token (or the end of the input) where '=' belongs
		// gets one message for the whole statement form.
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
