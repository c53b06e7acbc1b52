package core

import (
	"fmt"

	"tmdb/internal/algebra"
	"tmdb/internal/tmql"
)

// canonical holds the decomposition of the paper's canonical two-block query
//
//	SELECT F(x) FROM X x
//	WHERE plain(x) ∧ P(x, z)  WITH z = SELECT G(x,y) FROM Y y
//	                                   WHERE Q(x,y) ∧ local(y)
//
// on which the relational baselines (Kim, outerjoin) are defined.
type canonical struct {
	x        string
	xTable   string
	plain    []tmql.Expr // conjuncts of the outer WHERE without the subquery
	conjunct tmql.Expr   // the conjunct containing the subquery, P(x, z)
	sub      *tmql.SFW   // the subquery itself
	y        string
	yTable   string
	join     []tmql.Expr // Q(x,y): inner conjuncts referencing x
	local    []tmql.Expr // inner conjuncts over y only
	result   tmql.Expr   // G(x,y)
	selOnly  bool        // true when there is no WHERE subquery (pure select)
}

// decompose recognizes the canonical two-block form; ok=false if the query
// is outside it (deeper nesting, multiple FROM items, SELECT-clause
// subqueries, non-extension operands).
func decompose(q tmql.Expr) (*canonical, bool) {
	sfw, ok := q.(*tmql.SFW)
	if !ok || len(sfw.Froms) != 1 {
		return nil, false
	}
	xt, ok := sfw.Froms[0].Src.(*tmql.TableRef)
	if !ok {
		return nil, false
	}
	x := sfw.Froms[0].Var
	c := &canonical{x: x, xTable: xt.Name}

	result := InlineLets(sfw.Result)
	if findExtensionSubquery(result, x) != nil {
		return nil, false
	}

	where := InlineLets(sfw.Where)
	for _, conj := range splitConjuncts(where) {
		sub := findExtensionSubquery(conj, x)
		if sub == nil {
			c.plain = append(c.plain, conj)
			continue
		}
		if c.sub != nil {
			return nil, false // multiple subquery conjuncts: out of scope here
		}
		c.conjunct = conj
		c.sub = sub
	}
	if c.sub == nil {
		c.selOnly = true
		return c, true
	}
	if len(c.sub.Froms) != 1 {
		return nil, false
	}
	yt, ok := c.sub.Froms[0].Src.(*tmql.TableRef)
	if !ok {
		return nil, false
	}
	c.y = c.sub.Froms[0].Var
	c.yTable = yt.Name
	if c.y == x {
		return nil, false
	}
	for _, conj := range splitConjuncts(InlineLets(c.sub.Where)) {
		if findExtensionSubquery(conj, c.y) != nil || findExtensionSubquery(conj, x) != nil {
			return nil, false // deeper nesting: not two-block
		}
		if mentionsVar(conj, x) {
			c.join = append(c.join, conj)
		} else {
			c.local = append(c.local, conj)
		}
	}
	c.result = InlineLets(c.sub.Result)
	if mentionsVar(c.result, x) {
		// Kim's T table is built independently of x; a correlated join
		// function cannot be pre-grouped.
		return nil, false
	}
	return c, true
}

// translateKim implements Kim's transformation (§2, form (1)): the inner
// operand is grouped by the correlation attributes into a temporary table T,
// which is then regular-joined with the outer operand. Requires the
// correlation predicate Q to be a conjunction of equi-predicates (Kim's
// assumption). The resulting plan LOSES dangling outer tuples — the
// (generalized) COUNT bug, reproduced here on purpose as the paper's foil.
// Queries outside the canonical two-block form fall back to naive
// evaluation.
func (t *Translator) translateKim(q tmql.Expr) (algebra.Plan, error) {
	c, ok := decompose(q)
	if !ok {
		return t.b.EvalSet(q)
	}
	sfw := q.(*tmql.SFW)
	if c.selOnly {
		return t.translateNestJoin(q)
	}

	// Kim needs pure equi-correlation: split Q into x-side and y-side keys.
	xKeys, yKeys, residual := equiPairs(c.join, c.x, c.y)
	if residual != nil || len(xKeys) == 0 {
		return nil, fmt.Errorf("core: Kim's algorithm needs equi-correlation predicates, got %s",
			tmql.Format(conjoin(c.join)))
	}

	// Outer operand with its plain predicates, inner with its local ones.
	xp, err := t.operand(c.xTable, c.x, c.plain)
	if err != nil {
		return nil, err
	}
	yp, err := t.operand(c.yTable, c.y, c.local)
	if err != nil {
		return nil, err
	}

	// T = the inner operand grouped by its correlation attributes:
	// distinct keys nest-joined with Y itself (the paper's §4.1 rendering of
	// Kim's GROUP BY: SELECT (b = y.b, as = SELECT y'.a FROM Y y' WHERE
	// y'.b = y.b) FROM Y y).
	keyLabels := make([]string, len(yKeys))
	keyFields := make([]tmql.TupleField, len(yKeys))
	for i, yk := range yKeys {
		keyLabels[i] = t.freshName("k")
		keyFields[i] = tmql.TupleField{Label: keyLabels[i], E: yk}
	}
	keys, err := t.b.Map(yp, c.y, &tmql.TupleCons{Fields: keyFields})
	if err != nil {
		return nil, err
	}
	kv := t.freshName("g")
	var groupPredParts []tmql.Expr
	for i, yk := range yKeys {
		groupPredParts = append(groupPredParts, &tmql.Binary{
			Op: tmql.OpEq, L: fieldOf(kv, keyLabels[i]), R: yk,
		})
	}
	zsLabel := t.freshName("zs")
	tTable, err := t.b.NestJoin(keys, yp, kv, c.y, conjoin(groupPredParts), c.result, zsLabel)
	if err != nil {
		return nil, err
	}

	// Regular join X ⋈ T on the correlation keys plus the rewritten
	// predicate P(x, t.zs). Dangling X tuples vanish here: the bug.
	tv := t.freshName("t")
	var joinParts []tmql.Expr
	for i, xk := range xKeys {
		joinParts = append(joinParts, &tmql.Binary{
			Op: tmql.OpEq, L: xk, R: fieldOf(tv, keyLabels[i]),
		})
	}
	joinParts = append(joinParts, ReplaceNode(c.conjunct, c.sub, fieldOf(tv, zsLabel)))
	joined, err := t.b.Join(algebra.JoinInner, xp, tTable, c.x, tv, conjoin(joinParts))
	if err != nil {
		return nil, err
	}

	// Restore the outer element type, then map the result expression.
	proj, err := t.b.Project(joined, c.x, topLabels(xp)...)
	if err != nil {
		return nil, err
	}
	return t.b.Map(proj, c.x, InlineLets(sfw.Result))
}

// operand scans table and selects each of conds over v on it: a baseline's
// filtered operand.
func (t *Translator) operand(table, v string, conds []tmql.Expr) (p algebra.Plan, err error) {
	if p, err = t.b.Scan(table); err != nil {
		return nil, err
	}
	for _, c := range conds {
		if p, err = t.b.Select(p, v, c); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// equiPairs splits conjuncts over (x, y) into equi-key pairs; conjuncts that
// are not clean x-side = y-side equalities are returned as a residual.
func equiPairs(conjuncts []tmql.Expr, x, y string) (xKeys, yKeys []tmql.Expr, residual tmql.Expr) {
	var rest []tmql.Expr
	for _, c := range conjuncts {
		if eq, ok := c.(*tmql.Binary); ok && eq.Op == tmql.OpEq {
			lf, rf := tmql.FreeVars(eq.L), tmql.FreeVars(eq.R)
			switch {
			case subsetOf(lf, x) && subsetOf(rf, y) && lf[x] && rf[y]:
				xKeys = append(xKeys, eq.L)
				yKeys = append(yKeys, eq.R)
				continue
			case subsetOf(lf, y) && subsetOf(rf, x) && lf[y] && rf[x]:
				xKeys = append(xKeys, eq.R)
				yKeys = append(yKeys, eq.L)
				continue
			}
		}
		rest = append(rest, c)
	}
	return xKeys, yKeys, conjoin(rest)
}

func subsetOf(free map[string]bool, v string) bool {
	for name := range free {
		if name != v {
			return false
		}
	}
	return true
}
