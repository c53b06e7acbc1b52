package core

import (
	"tmdb/internal/algebra"
	"tmdb/internal/tmql"
)

// translateOuterJoin implements the relational repair of the COUNT bug in
// the style of Ganski–Wong (§2), expressed with the §6 identity
//
//	X △[Q,G;a] Y  =  ν*[a](X ⟗[Q] Y)
//
// : a left outerjoin preserves dangling outer tuples with NULL padding, the
// NULL-aware nest ν* turns each x's matches (or its padding) back into a set
// — ∅ for dangling x — and the predicate between blocks is then applied to
// that set. The nest join computes the same thing in one operator without
// ever materializing NULLs; benchmarks B3 measure the difference, and the
// property test asserts the equivalence.
//
// Queries outside the canonical two-block form fall back to naive
// evaluation.
func (t *Translator) translateOuterJoin(q tmql.Expr) (algebra.Plan, error) {
	c, ok := decompose(q)
	if !ok {
		return t.b.EvalSet(q)
	}
	sfw := q.(*tmql.SFW)
	if c.selOnly {
		return t.translateNestJoin(q)
	}

	xp, err := t.operand(c.xTable, c.x, c.plain)
	if err != nil {
		return nil, err
	}
	yp, err := t.operand(c.yTable, c.y, c.local)
	if err != nil {
		return nil, err
	}

	// Wrap the inner operand so the outerjoin concatenation cannot collide
	// with outer attributes: elements become (yw = y-row).
	yw := t.freshName("yw")
	wrapped, err := t.b.Map(yp, c.y, &tmql.TupleCons{
		Fields: []tmql.TupleField{{Label: yw, E: &tmql.Var{Name: c.y}}},
	})
	if err != nil {
		return nil, err
	}

	// Left outerjoin on Q with y readdressed through the wrapper.
	rv := t.freshName("r")
	joinPred := conjoin(c.join)
	if joinPred == nil {
		joinPred = trueExpr()
	}
	joinPred = SubstVar(joinPred, c.y, fieldOf(rv, yw))
	oj, err := t.b.Join(algebra.JoinLeftOuter, xp, wrapped, c.x, rv, joinPred)
	if err != nil {
		return nil, err
	}

	// ν*: nest the wrapped attribute; NULL padding nests to ∅.
	zsLabel := t.freshName("zs")
	nested, err := t.b.Nest(oj, []string{yw}, zsLabel, true)
	if err != nil {
		return nil, err
	}

	// The subquery result z is now SELECT G FROM x.zs w (with y ↦ w.yw).
	g := t.freshName("w")
	zExpr := &tmql.SFW{
		Result: SubstVar(c.result, c.y, fieldOf(g, yw)),
		Froms:  []tmql.FromItem{{Var: g, Src: fieldOf(c.x, zsLabel)}},
	}
	selPred := ReplaceNode(c.conjunct, c.sub, zExpr)
	sel, err := t.b.Select(nested, c.x, selPred)
	if err != nil {
		return nil, err
	}

	proj, err := t.b.Project(sel, c.x, topLabels(xp)...)
	if err != nil {
		return nil, err
	}
	return t.b.Map(proj, c.x, InlineLets(sfw.Result))
}
