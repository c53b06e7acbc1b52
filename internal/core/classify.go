// Package core implements the paper's primary contribution: the unnesting
// optimizer for nested TM queries. It contains
//
//   - the Table 2 / Theorem 1 predicate classifier deciding whether the
//     predicate between query blocks rewrites to ∃v ∈ z (P′) or ¬∃v ∈ z (P′)
//     — in which case grouping is unnecessary and a flat semijoin/antijoin
//     suffices — or requires grouping (classify.go);
//   - the translator from nested SFW expressions to algebra plans built on
//     the nest join, semijoin, and antijoin, processing linear nested queries
//     bottom-up as in §8, every block through one block builder over
//     algebra.JoinGraph (translate.go);
//   - two relational baselines for the experiments: Kim's group-then-join
//     transformation, which exhibits the (generalized) COUNT bug on dangling
//     tuples (kim.go), and the outerjoin + ν* repair in the style of
//     Ganski–Wong (outerjoin.go).
package core

import (
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Class is the outcome of classifying a predicate P(x, z) with respect to
// the subquery-result variable z.
type Class uint8

// Classification outcomes. ClassExists and ClassNotExists are Theorem 1's
// two flat forms; ClassGrouping means the subquery result must be available
// as a whole (§4.1), so the nest join is required.
const (
	ClassExists    Class = iota // P ⟺ ∃v ∈ z (P′)  → semijoin
	ClassNotExists              // P ⟺ ¬∃v ∈ z (P′) → antijoin
	ClassGrouping               // grouping needed   → nest join
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassExists:
		return "exists"
	case ClassNotExists:
		return "not-exists"
	case ClassGrouping:
		return "grouping"
	}
	return "class?"
}

// Classification is the result of Classify. For the two flat classes, V is
// the element variable and Inner the rewritten P′(x, v); Inner never mentions
// z. For ClassGrouping both are zero.
type Classification struct {
	Class Class
	V     string
	Inner tmql.Expr
}

// Classify rewrites the predicate between query blocks, pred, with respect
// to the set variable z into one of Theorem 1's flat forms if possible.
// fresh supplies fresh variable names for the introduced element variable.
//
// The implemented rewrite table extends the paper's Table 2:
//
//	z = ∅, ∅ = z, COUNT(z) = 0, COUNT(z) <= 0   → ¬∃v∈z (true)
//	z <> ∅, COUNT(z) > 0, COUNT(z) >= 1, 0 < COUNT(z), COUNT(z) <> 0
//	                                              → ∃v∈z (true)
//	e IN z                                        → ∃v∈z (v = e)
//	e NOT IN z                                    → ¬∃v∈z (v = e)
//	e SUPSETEQ z, z SUBSETEQ e                    → ¬∃v∈z (v NOT IN e)
//	e INTERSECT z = ∅ (either orientation)        → ¬∃v∈z (v IN e)
//	e INTERSECT z <> ∅                            → ∃v∈z (v IN e)
//	EXISTS v IN z (p)                             → ∃v∈z (p)
//	FORALL v IN z (p)                             → ¬∃v∈z (NOT p)
//	NOT P                                         → complement of P's class
//
// (with e, p free of z). Everything else mentioning z — x.a = COUNT(z),
// x.a SUBSETEQ z, x.a SUBSET z, x.a SUPSET z, x.a = z, arithmetic over
// aggregates, disjunctions, multiple occurrences of z — classifies as
// ClassGrouping, matching the lower half of Table 2. Whether grouping is
// always necessary for those forms is the paper's open question; the
// translator conservatively uses the nest join for all of them.
func Classify(pred tmql.Expr, z string, fresh func() string) Classification {
	if !mentionsVar(pred, z) {
		// No occurrence of z at all: the caller should have handled this as
		// an ordinary selection; treat as grouping-free trivial exists-form
		// conservatively via grouping (never expected in practice).
		return Classification{Class: ClassGrouping}
	}
	switch n := pred.(type) {
	case *tmql.Unary:
		if n.Op == tmql.OpNot {
			inner := Classify(n.X, z, fresh)
			switch inner.Class {
			case ClassExists:
				return Classification{Class: ClassNotExists, V: inner.V, Inner: inner.Inner}
			case ClassNotExists:
				return Classification{Class: ClassExists, V: inner.V, Inner: inner.Inner}
			}
			return Classification{Class: ClassGrouping}
		}

	case *tmql.Quant:
		// Quantification directly over z.
		if isVar(n.Over, z) && !mentionsVar(n.Pred, z) {
			if n.Kind == tmql.QExists {
				return Classification{Class: ClassExists, V: n.Var, Inner: n.Pred}
			}
			// ∀v∈z (p)  ⟺  ¬∃v∈z (¬p)
			return Classification{
				Class: ClassNotExists,
				V:     n.Var,
				Inner: &tmql.Unary{Op: tmql.OpNot, X: n.Pred},
			}
		}

	case *tmql.Binary:
		if c, ok := classifyBinary(n, z, fresh); ok {
			return c
		}
	}
	return Classification{Class: ClassGrouping}
}

func classifyBinary(n *tmql.Binary, z string, fresh func() string) (Classification, bool) {
	trueLit := func() tmql.Expr { return &tmql.Lit{V: value.True} }

	// Emptiness tests: z = ∅, ∅ = z, z <> ∅, ∅ <> z.
	if n.Op == tmql.OpEq || n.Op == tmql.OpNe {
		var other tmql.Expr
		if isVar(n.L, z) {
			other = n.R
		} else if isVar(n.R, z) {
			other = n.L
		}
		if other != nil && isEmptySetLit(other) {
			v := fresh()
			if n.Op == tmql.OpEq {
				return Classification{Class: ClassNotExists, V: v, Inner: trueLit()}, true
			}
			return Classification{Class: ClassExists, V: v, Inner: trueLit()}, true
		}
	}

	// COUNT(z) compared against a constant: emptiness in disguise.
	if n.Op.IsComparison() {
		if c, ok := classifyCountComparison(n, z, fresh); ok {
			return c, true
		}
	}

	// Membership: e IN z / e NOT IN z (e free of z).
	if (n.Op == tmql.OpIn || n.Op == tmql.OpNotIn) && isVar(n.R, z) && !mentionsVar(n.L, z) {
		v := fresh()
		inner := &tmql.Binary{Op: tmql.OpEq, L: &tmql.Var{Name: v}, R: n.L}
		if n.Op == tmql.OpIn {
			return Classification{Class: ClassExists, V: v, Inner: inner}, true
		}
		return Classification{Class: ClassNotExists, V: v, Inner: inner}, true
	}

	// Inclusion: e ⊇ z (either spelled e SUPSETEQ z or z SUBSETEQ e), e free
	// of z: ⟺ ¬∃v∈z (v ∉ e).
	var includer tmql.Expr
	if n.Op == tmql.OpSupsetEq && isVar(n.R, z) && !mentionsVar(n.L, z) {
		includer = n.L
	}
	if n.Op == tmql.OpSubsetEq && isVar(n.L, z) && !mentionsVar(n.R, z) {
		includer = n.R
	}
	if includer != nil {
		v := fresh()
		return Classification{
			Class: ClassNotExists,
			V:     v,
			Inner: &tmql.Binary{Op: tmql.OpNotIn, L: &tmql.Var{Name: v}, R: includer},
		}, true
	}

	// Disjointness: (e INTERSECT z) = ∅ and its complement (either operand
	// order for the intersection).
	if (n.Op == tmql.OpEq || n.Op == tmql.OpNe) && isEmptySetLit(n.R) {
		if inter, ok := n.L.(*tmql.Binary); ok && inter.Op == tmql.OpIntersect {
			var e tmql.Expr
			if isVar(inter.L, z) && !mentionsVar(inter.R, z) {
				e = inter.R
			} else if isVar(inter.R, z) && !mentionsVar(inter.L, z) {
				e = inter.L
			}
			if e != nil {
				v := fresh()
				inner := &tmql.Binary{Op: tmql.OpIn, L: &tmql.Var{Name: v}, R: e}
				if n.Op == tmql.OpEq {
					return Classification{Class: ClassNotExists, V: v, Inner: inner}, true
				}
				return Classification{Class: ClassExists, V: v, Inner: inner}, true
			}
		}
	}

	return Classification{}, false
}

// classifyCountComparison handles COUNT(z) OP k and k OP COUNT(z) for
// constant k where the comparison is equivalent to an emptiness or
// non-emptiness test.
func classifyCountComparison(n *tmql.Binary, z string, fresh func() string) (Classification, bool) {
	countOf := func(e tmql.Expr) bool {
		a, ok := e.(*tmql.Agg)
		return ok && a.Kind == value.AggCount && isVar(a.X, z)
	}
	intLit := func(e tmql.Expr) (int64, bool) {
		l, ok := e.(*tmql.Lit)
		if !ok || l.V.Kind() != value.KindInt {
			return 0, false
		}
		return l.V.AsInt(), true
	}

	var k int64
	var op tmql.Op
	switch {
	case countOf(n.L):
		if v, ok := intLit(n.R); ok {
			k, op = v, n.Op
		} else {
			return Classification{}, false
		}
	case countOf(n.R):
		v, ok := intLit(n.L)
		if !ok {
			return Classification{}, false
		}
		// Mirror: k OP COUNT(z) ⟺ COUNT(z) OP⁻¹ k.
		k = v
		switch n.Op {
		case tmql.OpLt:
			op = tmql.OpGt
		case tmql.OpLe:
			op = tmql.OpGe
		case tmql.OpGt:
			op = tmql.OpLt
		case tmql.OpGe:
			op = tmql.OpLe
		default:
			op = n.Op
		}
	default:
		return Classification{}, false
	}

	trueLit := func() tmql.Expr { return &tmql.Lit{V: value.True} }
	isEmpty := false
	isNonEmpty := false
	switch op {
	case tmql.OpEq:
		isEmpty = k == 0
	case tmql.OpNe:
		isNonEmpty = k == 0
	case tmql.OpLe:
		isEmpty = k == 0 // COUNT ≤ 0
	case tmql.OpLt:
		isEmpty = k == 1 // COUNT < 1
	case tmql.OpGt:
		isNonEmpty = k == 0 // COUNT > 0
	case tmql.OpGe:
		isNonEmpty = k == 1 // COUNT ≥ 1
	}
	v := fresh()
	if isEmpty {
		return Classification{Class: ClassNotExists, V: v, Inner: trueLit()}, true
	}
	if isNonEmpty {
		return Classification{Class: ClassExists, V: v, Inner: trueLit()}, true
	}
	return Classification{}, false
}

// isVar reports whether e is exactly the variable named name.
func isVar(e tmql.Expr, name string) bool {
	v, ok := e.(*tmql.Var)
	return ok && v.Name == name
}

// isEmptySetLit reports whether e is the literal ∅ ({}).
func isEmptySetLit(e tmql.Expr) bool {
	s, ok := e.(*tmql.SetCons)
	return ok && len(s.Elems) == 0
}

// mentionsVar reports whether name occurs free in e.
func mentionsVar(e tmql.Expr, name string) bool {
	return tmql.FreeVars(e)[name]
}
