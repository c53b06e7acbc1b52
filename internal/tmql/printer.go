package tmql

import (
	"fmt"
	"strings"
)

// Format renders an expression back to parsable TM surface syntax. The output
// is fully parenthesized where precedence demands it and round-trips through
// Parse (tested property: Parse(Format(e)) structurally equals e up to
// positions).
func Format(e Expr) string {
	var p printer
	p.expr(e, 0)
	return p.String()
}

// Shape renders e like Format but prints every slotted literal (see
// MarkSlots) as ?<kind> — ?int, ?float, ?string — so texts that differ only
// in those constants render alike. The engine keys its plan cache on it.
func Shape(e Expr) string {
	p := printer{shape: true}
	p.expr(e, 0)
	return p.String()
}

// printer renders expressions; shape selects Shape's rendering of slotted
// literals.
type printer struct {
	strings.Builder
	shape bool
}

// Precedence levels matching the parser, loosest first.
const (
	precWith = iota
	precOr
	precAnd
	precNot
	precCmp
	precSet
	precAdd
	precMul
	precUnary
	precPostfix
)

func opPrec(op Op) int {
	switch op {
	case OpOr:
		return precOr
	case OpAnd:
		return precAnd
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe,
		OpIn, OpNotIn, OpSubset, OpSubsetEq, OpSupset, OpSupsetEq:
		return precCmp
	case OpUnion, OpIntersect, OpDiff:
		return precSet
	case OpAdd, OpSub:
		return precAdd
	case OpMul, OpDiv, OpMod:
		return precMul
	}
	return precUnary
}

func (p *printer) expr(e Expr, min int) {
	switch n := e.(type) {
	case *Lit:
		if p.shape && n.Slot > 0 {
			p.WriteByte('?')
			p.WriteString(n.V.Kind().String())
			return
		}
		p.WriteString(n.V.String())
	case *Var:
		p.WriteString(n.Name)
	case *TableRef:
		p.WriteString(n.Name)
	case *FieldSel:
		p.expr(n.X, precPostfix)
		p.WriteByte('.')
		p.WriteString(n.Label)
	case *TupleCons:
		// Elements print at precOr so a WITH (Let) gets parentheses — the
		// comma would otherwise be swallowed by the WITH-binding list.
		p.WriteByte('(')
		for i, f := range n.Fields {
			if i > 0 {
				p.WriteString(", ")
			}
			p.WriteString(f.Label)
			p.WriteString(" = ")
			p.expr(f.E, precOr)
		}
		p.WriteByte(')')
	case *SetCons:
		p.WriteByte('{')
		for i, el := range n.Elems {
			if i > 0 {
				p.WriteString(", ")
			}
			p.expr(el, precOr)
		}
		p.WriteByte('}')
	case *ListCons:
		p.WriteByte('[')
		for i, el := range n.Elems {
			if i > 0 {
				p.WriteString(", ")
			}
			p.expr(el, precOr)
		}
		p.WriteByte(']')
	case *Binary:
		prec := opPrec(n.Op)
		if prec < min {
			p.WriteByte('(')
		}
		// Comparison is non-associative: children print one level tighter.
		childMin := prec
		if prec == precCmp {
			childMin = precSet
		}
		p.expr(n.L, childMin)
		p.WriteByte(' ')
		p.WriteString(n.Op.String())
		p.WriteByte(' ')
		p.expr(n.R, childMin+boolToInt(prec != precCmp && isLeftAssoc(n.Op)))
		if prec < min {
			p.WriteByte(')')
		}
	case *Unary:
		if n.Op == OpNot {
			if precNot < min {
				p.WriteByte('(')
			}
			p.WriteString("NOT ")
			p.expr(n.X, precNot)
			if precNot < min {
				p.WriteByte(')')
			}
			return
		}
		if precUnary < min {
			p.WriteByte('(')
		}
		p.WriteByte('-')
		// Guard against "--", which the lexer reads as a line comment: a
		// negative literal or nested negation is parenthesized.
		inner := printer{shape: p.shape}
		inner.expr(n.X, precUnary)
		if strings.HasPrefix(inner.String(), "-") {
			p.WriteByte('(')
			p.WriteString(inner.String())
			p.WriteByte(')')
		} else {
			p.WriteString(inner.String())
		}
		if precUnary < min {
			p.WriteByte(')')
		}
	case *Agg:
		p.WriteString(n.Kind.String())
		p.WriteByte('(')
		p.expr(n.X, 0)
		p.WriteByte(')')
	case *Quant:
		if precCmp < min {
			p.WriteByte('(')
		}
		fmt.Fprintf(p, "%s %s IN ", n.Kind, n.Var)
		p.expr(n.Over, precAdd)
		p.WriteString(" (")
		p.expr(n.Pred, 0)
		p.WriteByte(')')
		if precCmp < min {
			p.WriteByte(')')
		}
	case *SFW:
		if min > precWith {
			p.WriteByte('(')
		}
		p.WriteString("SELECT ")
		p.expr(n.Result, precOr)
		p.WriteString(" FROM ")
		for i, f := range n.Froms {
			if i > 0 {
				p.WriteString(", ")
			}
			p.expr(f.Src, precPostfix)
			p.WriteByte(' ')
			p.WriteString(f.Var)
		}
		if n.Where != nil {
			p.WriteString(" WHERE ")
			p.expr(n.Where, 0)
		}
		if min > precWith {
			p.WriteByte(')')
		}
	case *Let:
		if min > precWith {
			p.WriteByte('(')
		}
		p.expr(n.Body, precOr)
		p.WriteString(" WITH ")
		p.WriteString(n.V)
		p.WriteString(" = ")
		p.expr(n.Def, precOr)
		if min > precWith {
			p.WriteByte(')')
		}
	case *Unnest:
		p.WriteString("UNNEST(")
		p.expr(n.X, 0)
		p.WriteByte(')')
	default:
		fmt.Fprintf(p, "<?%T>", e)
	}
}

func isLeftAssoc(op Op) bool {
	switch op {
	case OpAnd, OpOr, OpAdd, OpSub, OpMul, OpDiv, OpMod, OpUnion, OpIntersect, OpDiff:
		return true
	}
	return false
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
