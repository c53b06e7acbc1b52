package tmql

import (
	"fmt"
	"strconv"
	"sync"

	"tmdb/internal/value"
)

// Parser is a recursive-descent parser with one-token lookahead plus
// backtracking for the FROM-list/tuple-field comma ambiguity.
//
// Disambiguation rule (documented in the package comment): a parenthesized
// group starting with `ident =` is a tuple constructor, as in the paper's
// (s = e.address.street, c = e.address.city); parenthesized equalities occur
// only as quantifier bodies, where the quantifier grammar owns the parens.
type Parser struct {
	toks []Token
	i    int
}

// tokenBufs recycles Parse's token buffers. The AST keeps no Token, so a
// buffer is free again once Parse returns; one grown past maxPooledTokens
// is left to the collector rather than pinned.
var tokenBufs = sync.Pool{New: func() any { return new([]Token) }}

const maxPooledTokens = 1024

// Parse parses a complete TM expression; trailing input is an error.
func Parse(src string) (Expr, error) {
	buf := tokenBufs.Get().(*[]Token)
	toks, err := appendTokens((*buf)[:0], src)
	defer func() {
		if cap(toks) <= maxPooledTokens {
			clear(toks) // drop the references into src
			*buf = toks[:0]
			tokenBufs.Put(buf)
		}
	}()
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokEOF {
		return nil, p.errorf("unexpected %s after expression", p.peek())
	}
	return e, nil
}

// MustParse parses or panics; for tests and examples.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *Parser) peek() Token   { return p.toks[p.i] }
func (p *Parser) next() Token   { t := p.toks[p.i]; p.i++; return t }
func (p *Parser) save() int     { return p.i }
func (p *Parser) restore(m int) { p.i = m }

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("parse error at %s: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

func (p *Parser) expect(kind TokKind, what string) (Token, error) {
	if p.peek().Kind != kind {
		return Token{}, p.errorf("expected %s, found %s", what, p.peek())
	}
	return p.next(), nil
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.peek().Is(kw) {
		return p.errorf("expected %s, found %s", kw, p.peek())
	}
	p.next()
	return nil
}

// parseExpr := parseOr (WITH ident = parseOr)*
func (p *Parser) parseExpr() (Expr, error) {
	body, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	for p.peek().Is("WITH") {
		pos := p.next().Pos
		for {
			name, err := p.expect(TokIdent, "identifier after WITH")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokEq, "'=' in WITH binding"); err != nil {
				return nil, err
			}
			def, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			body = &Let{exprBase: exprBase{pos: pos}, V: name.Text, Def: def, Body: body}
			if p.peek().Kind != TokComma {
				break
			}
			// A comma continues the WITH list only if followed by `ident =`.
			mark := p.save()
			p.next()
			if p.peek().Kind == TokIdent && p.toks[p.i+1].Kind == TokEq {
				continue
			}
			p.restore(mark)
			break
		}
	}
	return body, nil
}

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().Is("OR") {
		pos := p.next().Pos
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{pos: pos}, Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().Is("AND") {
		pos := p.next().Pos
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{pos: pos}, Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.peek().Is("NOT") {
		pos := p.next().Pos
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{pos: pos}, Op: OpNot, X: x}, nil
	}
	return p.parseCmp()
}

// parseCmp := parseSet [cmpOp parseSet]   (non-associative)
func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseSet()
	if err != nil {
		return nil, err
	}
	var op Op
	t := p.peek()
	switch {
	case t.Kind == TokEq:
		op = OpEq
	case t.Kind == TokNe:
		op = OpNe
	case t.Kind == TokLt:
		op = OpLt
	case t.Kind == TokLe:
		op = OpLe
	case t.Kind == TokGt:
		op = OpGt
	case t.Kind == TokGe:
		op = OpGe
	case t.Is("IN"):
		op = OpIn
	case t.Is("SUBSET"):
		op = OpSubset
	case t.Is("SUBSETEQ"):
		op = OpSubsetEq
	case t.Is("SUPSET"):
		op = OpSupset
	case t.Is("SUPSETEQ"):
		op = OpSupsetEq
	case t.Is("NOT") && p.toks[p.i+1].Is("IN"):
		p.next() // NOT; IN consumed below
		op = OpNotIn
	default:
		return l, nil
	}
	pos := p.next().Pos
	r, err := p.parseSet()
	if err != nil {
		return nil, err
	}
	return &Binary{exprBase: exprBase{pos: pos}, Op: op, L: l, R: r}, nil
}

func (p *Parser) parseSet() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.peek().Is("UNION"):
			op = OpUnion
		case p.peek().Is("INTERSECT"):
			op = OpIntersect
		case p.peek().Is("MINUS"):
			op = OpDiff
		default:
			return l, nil
		}
		pos := p.next().Pos
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{pos: pos}, Op: op, L: l, R: r}
	}
}

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch p.peek().Kind {
		case TokPlus:
			op = OpAdd
		case TokMinus:
			op = OpSub
		default:
			return l, nil
		}
		pos := p.next().Pos
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{pos: pos}, Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch p.peek().Kind {
		case TokStar:
			op = OpMul
		case TokSlash:
			op = OpDiv
		case TokPercent:
			op = OpMod
		default:
			return l, nil
		}
		pos := p.next().Pos
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{pos: pos}, Op: op, L: l, R: r}
	}
}

// parseUnary folds a minus written directly before a nonzero int or float
// literal into a negative literal, so that a negative constant is a literal
// like any other: it takes a parameter slot (MarkSlots) and shares its
// shape's plan. A negated zero, parenthesized expression or negation stays a
// negation, as Format prints it, so that Format stays a fixpoint.
func (p *Parser) parseUnary() (Expr, error) {
	if p.peek().Kind == TokMinus {
		pos := p.next().Pos
		num := p.peek().Kind == TokInt || p.peek().Kind == TokFloat
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Lit); ok && num && lit.V.AsFloat() != 0 {
			lit.pos = pos
			if lit.V.Kind() == value.KindInt {
				lit.V = value.Int(-lit.V.AsInt())
			} else {
				lit.V = value.Float(-lit.V.AsFloat())
			}
			return lit, nil
		}
		return &Unary{exprBase: exprBase{pos: pos}, Op: OpNeg, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peek().Kind == TokDot {
		pos := p.next().Pos
		lbl, err := p.expect(TokIdent, "field label after '.'")
		if err != nil {
			return nil, err
		}
		x = &FieldSel{exprBase: exprBase{pos: pos}, X: x, Label: lbl.Text}
	}
	return x, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokInt:
		p.next()
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %s", t.Text)
		}
		return &Lit{exprBase: exprBase{pos: t.Pos}, V: value.Int(n)}, nil
	case t.Kind == TokFloat:
		p.next()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("bad float %s", t.Text)
		}
		return &Lit{exprBase: exprBase{pos: t.Pos}, V: value.Float(f)}, nil
	case t.Kind == TokString:
		p.next()
		return &Lit{exprBase: exprBase{pos: t.Pos}, V: value.Str(t.Text)}, nil
	case t.Is("TRUE"):
		p.next()
		return &Lit{exprBase: exprBase{pos: t.Pos}, V: value.True}, nil
	case t.Is("FALSE"):
		p.next()
		return &Lit{exprBase: exprBase{pos: t.Pos}, V: value.False}, nil
	case t.Kind == TokIdent:
		p.next()
		return &Var{exprBase: exprBase{pos: t.Pos}, Name: t.Text}, nil
	case t.Is("SELECT"):
		return p.parseSFW()
	case t.Is("EXISTS") || t.Is("FORALL"):
		return p.parseQuant()
	case t.Is("UNNEST"):
		p.next()
		if _, err := p.expect(TokLParen, "'(' after UNNEST"); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, "')'"); err != nil {
			return nil, err
		}
		return &Unnest{exprBase: exprBase{pos: t.Pos}, X: x}, nil
	case t.Kind == TokKeyword:
		if kind, ok := value.ParseAggKind(t.Text); ok {
			p.next()
			if _, err := p.expect(TokLParen, "'(' after "+t.Text); err != nil {
				return nil, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen, "')'"); err != nil {
				return nil, err
			}
			return &Agg{exprBase: exprBase{pos: t.Pos}, Kind: kind, X: x}, nil
		}
	case t.Kind == TokLBrace:
		return p.parseSetCons()
	case t.Kind == TokLBracket:
		return p.parseListCons()
	case t.Kind == TokLParen:
		return p.parseParenOrTuple()
	}
	return nil, p.errorf("unexpected %s", t)
}

// parseParenOrTuple handles '(' … ')': an empty tuple, a tuple constructor
// (first token pair is `ident =`), or a parenthesized expression.
func (p *Parser) parseParenOrTuple() (Expr, error) {
	open := p.next() // '('
	if p.peek().Kind == TokRParen {
		p.next()
		return &TupleCons{exprBase: exprBase{pos: open.Pos}}, nil
	}
	if p.peek().Kind == TokIdent && p.toks[p.i+1].Kind == TokEq {
		var fields []TupleField
		for {
			lbl, err := p.expect(TokIdent, "tuple field label")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokEq, "'=' in tuple field"); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fields = append(fields, TupleField{Label: lbl.Text, E: e})
			if p.peek().Kind == TokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(TokRParen, "')' closing tuple"); err != nil {
			return nil, err
		}
		return &TupleCons{exprBase: exprBase{pos: open.Pos}, Fields: fields}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen, "')'"); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *Parser) parseSetCons() (Expr, error) {
	open := p.next() // '{'
	var elems []Expr
	if p.peek().Kind != TokRBrace {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if p.peek().Kind == TokComma {
				p.next()
				continue
			}
			break
		}
	}
	if _, err := p.expect(TokRBrace, "'}'"); err != nil {
		return nil, err
	}
	return &SetCons{exprBase: exprBase{pos: open.Pos}, Elems: elems}, nil
}

func (p *Parser) parseListCons() (Expr, error) {
	open := p.next() // '['
	var elems []Expr
	if p.peek().Kind != TokRBracket {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if p.peek().Kind == TokComma {
				p.next()
				continue
			}
			break
		}
	}
	if _, err := p.expect(TokRBracket, "']'"); err != nil {
		return nil, err
	}
	return &ListCons{exprBase: exprBase{pos: open.Pos}, Elems: elems}, nil
}

// parseQuant := (EXISTS|FORALL) ident IN parseSet '(' expr ')'
func (p *Parser) parseQuant() (Expr, error) {
	kw := p.next()
	kind := QExists
	if kw.Text == "FORALL" {
		kind = QForall
	}
	v, err := p.expect(TokIdent, "quantifier variable")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("IN"); err != nil {
		return nil, err
	}
	over, err := p.parseSet()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen, "'(' starting quantifier body"); err != nil {
		return nil, err
	}
	pred, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen, "')' closing quantifier body"); err != nil {
		return nil, err
	}
	return &Quant{exprBase: exprBase{pos: kw.Pos}, Kind: kind, Var: v.Text, Over: over, Pred: pred}, nil
}

// parseSFW := SELECT expr FROM fromItem (',' fromItem)* [WHERE expr]
func (p *Parser) parseSFW() (Expr, error) {
	sel := p.next() // SELECT
	result, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	first, err := p.parseFromItem()
	if err != nil {
		return nil, err
	}
	froms := []FromItem{first}
	for p.peek().Kind == TokComma {
		// Backtrack point: the comma may belong to an enclosing tuple
		// constructor or set literal rather than the FROM list.
		mark := p.save()
		p.next()
		item, err := p.parseFromItem()
		if err != nil {
			p.restore(mark)
			break
		}
		froms = append(froms, item)
	}
	var where Expr
	if p.peek().Is("WHERE") {
		p.next()
		where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return &SFW{exprBase: exprBase{pos: sel.Pos}, Result: result, Froms: froms, Where: where}, nil
}

// parseFromItem := parsePostfix ident — a source expression followed by the
// iteration variable, e.g. "DEPT d" or "d.emps e".
func (p *Parser) parseFromItem() (FromItem, error) {
	src, err := p.parsePostfix()
	if err != nil {
		return FromItem{}, err
	}
	v, err := p.expect(TokIdent, "iteration variable in FROM")
	if err != nil {
		return FromItem{}, err
	}
	return FromItem{Var: v.Text, Src: src}, nil
}
