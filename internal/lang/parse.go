package lang

import (
	"fmt"
	"strings"

	"tiling3d/internal/ir"
)

// ParseNamed parses a stencil program into an IR nest. params binds the
// symbolic sizes used in loop bounds (e.g. "N" -> 300). The source's
// 1-based indexing (do I = 2, N-1) is converted to the IR's 0-based
// form, so bounds and subscript constants shift by one. Every error
// position reads name:line:col, or line:col when name is empty.
func ParseNamed(name, src string, params map[string]int) (*ir.Nest, error) {
	toks, err := lex(name, src)
	if err != nil {
		return nil, err
	}
	p := &parser{file: name, toks: toks, params: params}
	nest, err := p.program()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, p.errorf("trailing input after the loop nest")
	}
	return nest, nil
}

type parser struct {
	file   string
	toks   []token
	pos    int
	params map[string]int
	loops  []string // loop variables in scope, outermost first
}

func (p *parser) peek() token       { return p.toks[p.pos] }
func (p *parser) next() token       { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k tokKind) bool { return p.peek().kind == k }

func (p *parser) errorf(format string, args ...interface{}) error {
	t := p.peek()
	return fmt.Errorf("lang: %s: %s (at %q)", posString(p.file, t.line, t.col), fmt.Sprintf(format, args...), t.String())
}

// errAt reports an error anchored at a specific token rather than the
// parser's current position.
func (p *parser) errAt(t token, format string, args ...interface{}) error {
	return fmt.Errorf("lang: %s: %s", posString(p.file, t.line, t.col), fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	if !p.at(k) {
		return token{}, p.errorf("expected %s", what)
	}
	return p.next(), nil
}

// program := loop
func (p *parser) program() (*ir.Nest, error) {
	if !isKeyword(p.peek(), "do") {
		return nil, p.errorf("expected a do loop")
	}
	return p.loop()
}

// loop := "do" IDENT "=" bound "," bound body
func (p *parser) loop() (*ir.Nest, error) {
	p.next() // "do"
	name, err := p.expect(tokIdent, "loop variable")
	if err != nil {
		return nil, err
	}
	for _, l := range p.loops {
		if strings.EqualFold(l, name.text) {
			return nil, p.errorf("loop variable %s shadows an outer loop", name.text)
		}
	}
	if _, err := p.expect(tokAssign, "'='"); err != nil {
		return nil, err
	}
	lo, err := p.bound()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokComma, "','"); err != nil {
		return nil, err
	}
	hi, err := p.bound()
	if err != nil {
		return nil, err
	}
	step := 1
	if p.at(tokComma) {
		p.next()
		t, err := p.expect(tokInt, "step constant")
		if err != nil {
			return nil, err
		}
		step = t.val
		if step < 1 {
			return nil, p.errorf("step must be positive")
		}
	}
	p.loops = append(p.loops, name.text)
	defer func() { p.loops = p.loops[:len(p.loops)-1] }()

	this := ir.Loop{
		Name: strings.ToUpper(name.text),
		// 1-based source to 0-based IR.
		Lo:   ir.BoundOf(ir.Con(lo - 1)),
		Hi:   ir.BoundOf(ir.Con(hi - 1)),
		Step: step,
	}
	if isKeyword(p.peek(), "do") {
		inner, err := p.loop()
		if err != nil {
			return nil, err
		}
		inner.Loops = append([]ir.Loop{this}, inner.Loops...)
		return inner, nil
	}
	assign, err := p.assign()
	if err != nil {
		return nil, err
	}
	nest := &ir.Nest{Loops: []ir.Loop{this}}
	nest.SetCompute(*assign)
	return nest, nil
}

// bound := INT | IDENT [("+"|"-") INT]
func (p *parser) bound() (int, error) {
	if p.at(tokInt) {
		return p.next().val, nil
	}
	name, err := p.expect(tokIdent, "bound")
	if err != nil {
		return 0, err
	}
	v, ok := p.params[name.text]
	if !ok {
		v, ok = p.params[strings.ToUpper(name.text)]
	}
	if !ok {
		return 0, p.errAt(name, "unknown size parameter %q", name.text)
	}
	switch {
	case p.at(tokPlus):
		p.next()
		t, err := p.expect(tokInt, "constant")
		if err != nil {
			return 0, err
		}
		return v + t.val, nil
	case p.at(tokMinus):
		p.next()
		t, err := p.expect(tokInt, "constant")
		if err != nil {
			return 0, err
		}
		return v - t.val, nil
	}
	return v, nil
}

// assign := ref "=" rhs
func (p *parser) assign() (*ir.Assign, error) {
	lhs, err := p.ref()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokAssign, "'='"); err != nil {
		return nil, err
	}
	a := &ir.Assign{LHS: lhs}
	neg := false
	if p.at(tokMinus) {
		p.next()
		neg = true
	}
	for {
		t, err := p.term(neg)
		if err != nil {
			return nil, err
		}
		a.Terms = append(a.Terms, t)
		switch {
		case p.at(tokPlus):
			p.next()
			neg = false
		case p.at(tokMinus):
			p.next()
			neg = true
		default:
			return a, nil
		}
	}
}

// term := IDENT "*" "(" refsum ")" | ref
func (p *parser) term(neg bool) (ir.Term, error) {
	if p.peek().kind != tokIdent {
		return ir.Term{}, p.errorf("expected a coefficient or array reference")
	}
	// Lookahead: IDENT "*" is a coefficient; IDENT "(" is a reference.
	if p.toks[p.pos+1].kind == tokStar {
		coeff := p.next()
		p.next() // '*'
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return ir.Term{}, err
		}
		t := ir.Term{Coeff: strings.ToUpper(coeff.text), Neg: neg}
		for {
			r, err := p.ref()
			if err != nil {
				return ir.Term{}, err
			}
			t.Refs = append(t.Refs, r)
			if p.at(tokPlus) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return ir.Term{}, err
		}
		return t, nil
	}
	r, err := p.ref()
	if err != nil {
		return ir.Term{}, err
	}
	return ir.Term{Coeff: "ONE", Neg: neg, Refs: []ir.Ref{r}}, nil
}

// ref := IDENT "(" sub {"," sub} ")"
func (p *parser) ref() (ir.Ref, error) {
	name, err := p.expect(tokIdent, "array name")
	if err != nil {
		return ir.Ref{}, err
	}
	if _, err := p.expect(tokLParen, "'(' after array name"); err != nil {
		return ir.Ref{}, err
	}
	r := ir.Ref{Array: strings.ToUpper(name.text), Pos: ir.Pos{Line: name.line, Col: name.col}}
	for {
		s, err := p.sub()
		if err != nil {
			return ir.Ref{}, err
		}
		r.Subs = append(r.Subs, s)
		if p.at(tokComma) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return ir.Ref{}, err
	}
	return r, nil
}

// sub := IDENT [("+"|"-") INT] | INT. The 1-based source subscript i maps
// to IR subscript i-1: loop variables shift implicitly (both the loop
// bounds and the variable's meaning shift together, so VAR+c stays
// VAR+c), while absolute subscripts shift by one.
func (p *parser) sub() (ir.Expr, error) {
	if p.at(tokInt) {
		return ir.Con(p.next().val - 1), nil
	}
	name, err := p.expect(tokIdent, "subscript")
	if err != nil {
		return ir.Expr{}, err
	}
	inScope := false
	for _, l := range p.loops {
		if strings.EqualFold(l, name.text) {
			inScope = true
			break
		}
	}
	if !inScope {
		return ir.Expr{}, p.errAt(name, "subscript %q is not an enclosing loop variable", name.text)
	}
	e := ir.Var(strings.ToUpper(name.text), 0)
	switch {
	case p.at(tokPlus):
		p.next()
		t, err := p.expect(tokInt, "constant")
		if err != nil {
			return ir.Expr{}, err
		}
		return e.Plus(t.val), nil
	case p.at(tokMinus):
		p.next()
		t, err := p.expect(tokInt, "constant")
		if err != nil {
			return ir.Expr{}, err
		}
		return e.Plus(-t.val), nil
	}
	return e, nil
}
