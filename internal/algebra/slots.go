package algebra

import (
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// BindSlots returns p with vals substituted for the slotted literals of every
// embedded expression (see tmql.MarkSlots and tmql.BindSlots). Operators off
// the paths to slotted literals are shared and element types are kept — a
// slot's kind is part of the query's shape — so the copy needs no re-building
// and compiles exactly like a freshly planned tree. p is never mutated.
func BindSlots(p Plan, vals []value.Value) Plan {
	sub := func(q Plan) Plan { return BindSlots(q, vals) }
	ex := func(e tmql.Expr) tmql.Expr { return tmql.BindSlots(e, vals) }
	switch n := p.(type) {
	case *Select:
		if in, pred := sub(n.In), ex(n.Pred); in != n.In || pred != n.Pred {
			return cloneWith(n, func(c *Select) { c.In, c.Pred = in, pred })
		}
	case *Map:
		if in, out := sub(n.In), ex(n.Out); in != n.In || out != n.Out {
			return cloneWith(n, func(c *Map) { c.In, c.Out = in, out })
		}
	case *Join:
		if l, r, pred := sub(n.L), sub(n.R), ex(n.Pred); l != n.L || r != n.R || pred != n.Pred {
			return cloneWith(n, func(c *Join) { c.L, c.R, c.Pred = l, r, pred })
		}
	case *NestJoin:
		l, r := sub(n.L), sub(n.R)
		if pred, fn := ex(n.Pred), ex(n.Fn); l != n.L || r != n.R || pred != n.Pred || fn != n.Fn {
			return cloneWith(n, func(c *NestJoin) { c.L, c.R, c.Pred, c.Fn = l, r, pred, fn })
		}
	case *Nest:
		if in := sub(n.In); in != n.In {
			return cloneWith(n, func(c *Nest) { c.In = in })
		}
	case *Unnest:
		if in := sub(n.In); in != n.In {
			return cloneWith(n, func(c *Unnest) { c.In = in })
		}
	case *SetOp:
		if l, r := sub(n.L), sub(n.R); l != n.L || r != n.R {
			return cloneWith(n, func(c *SetOp) { c.L, c.R = l, r })
		}
	case *EvalNode:
		if e := ex(n.Expr); e != n.Expr {
			return cloneWith(n, func(c *EvalNode) { c.Expr = e })
		}
	}
	return p
}

// cloneWith returns a shallow copy of *n with set applied to it.
func cloneWith[T any](n *T, set func(*T)) *T {
	c := *n
	set(&c)
	return &c
}
