package tmql

import (
	"fmt"
	"math/rand"
	"testing"

	"tmdb/internal/value"
)

// TestFormatParseRoundTripRandom generates random expression trees and
// checks that Format output reparses to a tree with identical Format — i.e.
// the printer emits enough parentheses for every shape the AST can take.
func TestFormatParseRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		e := randomExpr(r, 4)
		s1 := Format(e)
		e2, err := Parse(s1)
		if err != nil {
			t.Fatalf("reparse failed for %q (tree %d): %v", s1, i, err)
		}
		s2 := Format(e2)
		if s1 != s2 {
			t.Fatalf("format not a fixpoint:\n 1: %s\n 2: %s", s1, s2)
		}
	}
}

var rtBinOps = []Op{
	OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAdd, OpSub, OpMul, OpDiv, OpMod,
	OpAnd, OpOr, OpIn, OpNotIn, OpSubset, OpSubsetEq, OpSupset, OpSupsetEq,
	OpUnion, OpIntersect, OpDiff,
}

func randomExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return &Lit{V: value.Int(int64(r.Intn(10)))}
		case 4:
			// A negative number, which reparses from its text as a literal.
			return &Lit{V: value.Float(-float64(r.Intn(10)) - 0.5)}
		case 1:
			return &Lit{V: value.Str("s")}
		case 2:
			return &Lit{V: value.Bool(r.Intn(2) == 0)}
		default:
			return &Var{Name: fmt.Sprintf("v%d", r.Intn(4))}
		}
	}
	switch r.Intn(12) {
	case 0:
		return &Binary{Op: rtBinOps[r.Intn(len(rtBinOps))],
			L: randomExpr(r, depth-1), R: randomExpr(r, depth-1)}
	case 1:
		return &Unary{Op: OpNot, X: randomExpr(r, depth-1)}
	case 2:
		return &Unary{Op: OpNeg, X: randomExpr(r, depth-1)}
	case 3:
		return &FieldSel{X: &Var{Name: "x"}, Label: fmt.Sprintf("f%d", r.Intn(3))}
	case 4:
		n := r.Intn(3)
		fs := make([]TupleField, 0, n)
		for i := 0; i < n; i++ {
			fs = append(fs, TupleField{Label: fmt.Sprintf("l%d", i), E: randomExpr(r, depth-1)})
		}
		return &TupleCons{Fields: fs}
	case 5:
		n := r.Intn(3)
		es := make([]Expr, n)
		for i := range es {
			es[i] = randomExpr(r, depth-1)
		}
		return &SetCons{Elems: es}
	case 6:
		return &Agg{Kind: value.AggKind(r.Intn(5)), X: randomExpr(r, depth-1)}
	case 7:
		kind := QExists
		if r.Intn(2) == 0 {
			kind = QForall
		}
		return &Quant{Kind: kind, Var: "q", Over: randomExpr(r, depth-1), Pred: randomExpr(r, depth-1)}
	case 8:
		froms := []FromItem{{Var: "a", Src: randomExpr(r, depth-1)}}
		if r.Intn(2) == 0 {
			froms = append(froms, FromItem{Var: "b", Src: randomExpr(r, depth-1)})
		}
		var where Expr
		if r.Intn(2) == 0 {
			where = randomExpr(r, depth-1)
		}
		return &SFW{Result: randomExpr(r, depth-1), Froms: froms, Where: where}
	case 9:
		return &Let{V: "w", Def: randomExpr(r, depth-1), Body: randomExpr(r, depth-1)}
	case 10:
		return &Unnest{X: randomExpr(r, depth-1)}
	default:
		n := r.Intn(3)
		es := make([]Expr, n)
		for i := range es {
			es[i] = randomExpr(r, depth-1)
		}
		return &ListCons{Elems: es}
	}
}
