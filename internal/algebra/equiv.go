package algebra

import (
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Rewrite rules over logical plans implementing the §6 algebraic properties
// of the nest join and standard cleanup rules. The nest join has "less
// pleasant algebraic properties" than the regular join — it is neither
// commutative nor associative — so the rule set is deliberately small and
// every rule matches one of the identities the paper states:
//
//	πX(X △ Y) = X                            (projection elimination)
//	σp∧q(X △ Y) = σq(σp(X) △ Y)              (selection pushdown: the nest
//	                                          join preserves X's tuples
//	                                          one-to-one, so the left-only
//	                                          conjuncts p commute; the rest q
//	                                          stays above)
//	σp(map[t](X)) = map[t](σp∘t(X))          (selection through projection,
//	                                          the enabling step for the
//	                                          pushdown above)
//	(X ⋈r(x,y) Y) △r(x,z) Z = (X △r(x,z) Z) ⋈r(x,y) Y   — not implemented as
//	a rewrite (it needs cost guidance to be useful) but verified as a tested
//	equivalence in equiv_test.go.
//
// Optimize applies the rules bottom-up until a fixpoint. It is semantics-
// preserving (property-tested against execution of both plans). The
// planner's logical-alternative generator calls it to produce the "rewrite"
// peer candidate that competes on cost with the as-translated plan (see
// planner.Alternatives); engine.Options.PinAlt can pin that candidate.
func Optimize(b *Builder, p Plan) (Plan, error) {
	for {
		q, changed, err := rewriteOnce(b, p)
		if err != nil {
			return nil, err
		}
		if !changed {
			return q, nil
		}
		p = q
	}
}

func rewriteOnce(b *Builder, p Plan) (Plan, bool, error) {
	// Rewrite children first.
	switch n := p.(type) {
	case *Select:
		in, ch, err := rewriteOnce(b, n.In)
		if err != nil {
			return nil, false, err
		}
		if ch {
			s, err := b.Select(in, n.Var, n.Pred)
			return s, true, err
		}
	case *Map:
		in, ch, err := rewriteOnce(b, n.In)
		if err != nil {
			return nil, false, err
		}
		if ch {
			m, err := b.Map(in, n.Var, n.Out)
			return m, true, err
		}
	case *Join:
		l, chL, err := rewriteOnce(b, n.L)
		if err != nil {
			return nil, false, err
		}
		r, chR, err := rewriteOnce(b, n.R)
		if err != nil {
			return nil, false, err
		}
		if chL || chR {
			j, err := b.Join(n.Kind, l, r, n.LVar, n.RVar, n.Pred)
			return j, true, err
		}
	case *NestJoin:
		l, chL, err := rewriteOnce(b, n.L)
		if err != nil {
			return nil, false, err
		}
		r, chR, err := rewriteOnce(b, n.R)
		if err != nil {
			return nil, false, err
		}
		if chL || chR {
			j, err := b.NestJoin(l, r, n.LVar, n.RVar, n.Pred, n.Fn, n.Label)
			return j, true, err
		}
	case *Nest:
		in, ch, err := rewriteOnce(b, n.In)
		if err != nil {
			return nil, false, err
		}
		if ch {
			nn, err := b.Nest(in, n.Attrs, n.Label, n.NullAware)
			return nn, true, err
		}
	case *Unnest:
		in, ch, err := rewriteOnce(b, n.In)
		if err != nil {
			return nil, false, err
		}
		if ch {
			u, err := b.Unnest(in, n.Attr)
			return u, true, err
		}
	case *SetOp:
		l, chL, err := rewriteOnce(b, n.L)
		if err != nil {
			return nil, false, err
		}
		r, chR, err := rewriteOnce(b, n.R)
		if err != nil {
			return nil, false, err
		}
		if chL || chR {
			s, err := b.SetOp(n.Kind, l, r)
			return s, true, err
		}
	}

	// Root rules.
	if q, ok, err := ruleSelectTrue(p); err != nil || ok {
		return q, ok, err
	}
	if q, ok, err := ruleMergeSelects(b, p); err != nil || ok {
		return q, ok, err
	}
	if q, ok, err := ruleSelectThroughProject(b, p); err != nil || ok {
		return q, ok, err
	}
	if q, ok, err := rulePushSelectLeftOfNestJoin(b, p); err != nil || ok {
		return q, ok, err
	}
	if q, ok, err := ruleProjectAwayNestJoin(b, p); err != nil || ok {
		return q, ok, err
	}
	return p, false, nil
}

// ruleSelectTrue drops σ[true].
func ruleSelectTrue(p Plan) (Plan, bool, error) {
	s, ok := p.(*Select)
	if !ok {
		return p, false, nil
	}
	if lit, ok := s.Pred.(*tmql.Lit); ok && lit.V.Kind() == value.KindBool && lit.V.AsBool() {
		return s.In, true, nil
	}
	return p, false, nil
}

// ruleMergeSelects fuses σp(σq(X)) into σ(p ∧ q)(X), renaming q's variable
// to p's.
func ruleMergeSelects(b *Builder, p Plan) (Plan, bool, error) {
	outer, ok := p.(*Select)
	if !ok {
		return p, false, nil
	}
	inner, ok := outer.In.(*Select)
	if !ok {
		return p, false, nil
	}
	innerPred := renameVar(inner.Pred, inner.Var, outer.Var)
	merged := &tmql.Binary{Op: tmql.OpAnd, L: innerPred, R: outer.Pred}
	s, err := b.Select(inner.In, outer.Var, merged)
	return s, err == nil, err
}

// rulePushSelectLeftOfNestJoin pushes the left-only conjuncts of
// σ[p(x)](X △ Y) into the left operand: σ[rest](σ[pushable](X) △ Y). A
// conjunct is pushable when it references neither the nest-join label nor
// any attribute outside L's element type. Sound because the nest join emits
// each left tuple exactly once, extended — left-only predicates see the same
// values before and after. Splitting the conjunction (rather than requiring
// the whole predicate to be left-only) lets the classification selection on
// the grouped attribute stay above while outer-table restrictions shrink the
// nest-join input — the §6 selection-pushdown the cost-based optimizer
// weighs as a logical alternative.
func rulePushSelectLeftOfNestJoin(b *Builder, p Plan) (Plan, bool, error) {
	s, ok := p.(*Select)
	if !ok {
		return p, false, nil
	}
	nj, ok := s.In.(*NestJoin)
	if !ok {
		return p, false, nil
	}
	var push, keep []tmql.Expr
	for _, c := range tmql.SplitAnd(s.Pred) {
		if !exprUsesLabel(c, s.Var, nj.Label) && fieldsSubset(c, s.Var, nj.L.Elem()) {
			push = append(push, c)
		} else {
			keep = append(keep, c)
		}
	}
	if len(push) == 0 {
		return p, false, nil
	}
	pushed, err := b.Select(nj.L, nj.LVar, renameVar(tmql.JoinAnd(push), s.Var, nj.LVar))
	if err != nil {
		return p, false, nil
	}
	out, err := b.NestJoin(pushed, nj.R, nj.LVar, nj.RVar, nj.Pred, nj.Fn, nj.Label)
	if err != nil {
		return nil, false, err
	}
	if len(keep) > 0 {
		kept, err := b.Select(out, s.Var, tmql.JoinAnd(keep))
		if err != nil {
			return nil, false, err
		}
		return kept, true, nil
	}
	return out, true, nil
}

// ruleSelectThroughProject commutes a selection with a tuple-constructing
// Map: σ[p](map[(l₁ = e₁, …)](X)) = map[…](σ[p′](X)) where p′ replaces every
// v.lᵢ by eᵢ. Applicable when the predicate observes the map's output only
// through field selections of constructed labels (never the whole tuple).
// This is what lets a restriction that the translator placed above a
// label-projection sink toward the nest join below it, where
// rulePushSelectLeftOfNestJoin can take over. A flat-join leaf selection
// stays over its source's wrapper Map, where the join-order search placed
// and costed it.
func ruleSelectThroughProject(b *Builder, p Plan) (Plan, bool, error) {
	s, ok := p.(*Select)
	if !ok {
		return p, false, nil
	}
	m, ok := s.In.(*Map)
	if !ok || WrapperLabel(m) != "" {
		return p, false, nil
	}
	cons, ok := m.Out.(*tmql.TupleCons)
	if !ok {
		return p, false, nil
	}
	fields := make(map[string]tmql.Expr, len(cons.Fields))
	for _, f := range cons.Fields {
		fields[f.Label] = f.E
	}
	if usesVarOutsideFields(s.Pred, s.Var, fields) {
		return p, false, nil
	}
	inner, err := b.Select(m.In, m.Var, substVarFields(s.Pred, s.Var, fields))
	if err != nil {
		return p, false, nil
	}
	out, err := b.Map(inner, m.Var, m.Out)
	return out, err == nil, err
}

// ruleProjectAwayNestJoin implements πX(X △ Y) = X: a Map over a NestJoin
// that projects exactly (a subset of) the left operand's attributes never
// observes the group, so the nest join is dead.
func ruleProjectAwayNestJoin(b *Builder, p Plan) (Plan, bool, error) {
	m, ok := p.(*Map)
	if !ok {
		return p, false, nil
	}
	nj, ok := m.In.(*NestJoin)
	if !ok {
		return p, false, nil
	}
	if exprUsesLabel(m.Out, m.Var, nj.Label) {
		return p, false, nil
	}
	if !fieldsSubset(m.Out, m.Var, nj.L.Elem()) {
		return p, false, nil
	}
	out, err := b.Map(nj.L, nj.LVar, renameVar(m.Out, m.Var, nj.LVar))
	if err != nil {
		return p, false, nil
	}
	return out, true, nil
}

// exprUsesLabel reports whether e contains v.label (field selection of the
// nest-join label on the operator variable) or uses v whole (which would
// expose the label).
func exprUsesLabel(e tmql.Expr, v, label string) bool {
	exposed := false
	var walk func(n tmql.Expr)
	walk = func(n tmql.Expr) {
		if exposed || n == nil {
			return
		}
		if fs, ok := n.(*tmql.FieldSel); ok {
			if inner, ok := fs.X.(*tmql.Var); ok && inner.Name == v {
				if fs.Label == label {
					exposed = true
				}
				return // v is consumed by this selection
			}
			walk(fs.X)
			return
		}
		if vr, ok := n.(*tmql.Var); ok {
			if vr.Name == v {
				exposed = true // whole-tuple use
			}
			return
		}
		for _, c := range childrenOf(n) {
			walk(c)
		}
	}
	walk(e)
	return exposed
}

// fieldsSubset reports whether every v.field selection in e names a field of
// elem (so e is evaluable against elem) and e does not use v whole unless
// elem covers it — conservatively false on whole-tuple use.
func fieldsSubset(e tmql.Expr, v string, elem *types.Type) bool {
	ok := true
	var walk func(n tmql.Expr)
	walk = func(n tmql.Expr) {
		if !ok || n == nil {
			return
		}
		if fs, isFS := n.(*tmql.FieldSel); isFS {
			if inner, isVar := fs.X.(*tmql.Var); isVar && inner.Name == v {
				if _, has := elem.Field(fs.Label); !has {
					ok = false
				}
				return
			}
			walk(fs.X)
			return
		}
		if vr, isVar := n.(*tmql.Var); isVar {
			if vr.Name == v {
				ok = false // whole-tuple use: not a pure projection of elem
			}
			return
		}
		for _, c := range childrenOf(n) {
			walk(c)
		}
	}
	walk(e)
	return ok
}

// usesVarOutsideFields reports whether e observes v other than through field
// selections whose labels are keys of fields — whole-tuple use or a
// selection of an unconstructed label.
func usesVarOutsideFields(e tmql.Expr, v string, fields map[string]tmql.Expr) bool {
	outside := false
	var walk func(n tmql.Expr)
	walk = func(n tmql.Expr) {
		if outside || n == nil {
			return
		}
		if fs, ok := n.(*tmql.FieldSel); ok {
			if inner, ok := fs.X.(*tmql.Var); ok && inner.Name == v {
				if _, has := fields[fs.Label]; !has {
					outside = true
				}
				return
			}
			walk(fs.X)
			return
		}
		if vr, ok := n.(*tmql.Var); ok {
			if vr.Name == v {
				outside = true
			}
			return
		}
		for _, c := range childrenOf(n) {
			walk(c)
		}
	}
	walk(e)
	return outside
}

// substVarFields replaces every free field selection v.l in e by fields[l]
// (shadow-aware via the shared tmql rewriter). Callers must have established
// via usesVarOutsideFields that v is never used whole and every selected
// label is present.
func substVarFields(e tmql.Expr, v string, fields map[string]tmql.Expr) tmql.Expr {
	return tmql.SubstFieldSel(e, func(u, l string) tmql.Expr {
		if u != v {
			return nil
		}
		return fields[l]
	})
}

// childrenOf returns the direct child expressions of n (binders included —
// callers above only inspect Var/FieldSel patterns that shadowing cannot
// produce for operator variables, which are fresh by construction: JoinGraph
// names the flat-join operators' variables away from every name in the
// block).
func childrenOf(n tmql.Expr) []tmql.Expr {
	var out []tmql.Expr
	first := true
	tmql.Walk(n, func(c tmql.Expr) bool {
		if first {
			first = false
			return true
		}
		out = append(out, c)
		return false
	})
	return out
}

// renameVar renames free occurrences of old to new inside e.
func renameVar(e tmql.Expr, old, newName string) tmql.Expr {
	if old == newName {
		return e
	}
	return tmql.Rewrite(e, func(n tmql.Expr, bound map[string]int) (tmql.Expr, bool) {
		if v, ok := n.(*tmql.Var); ok && v.Name == old && bound[old] == 0 {
			return &tmql.Var{Name: newName}, true
		}
		return nil, false
	})
}
