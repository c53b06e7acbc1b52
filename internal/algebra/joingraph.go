package algebra

import (
	"fmt"

	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Flat join blocks — the paper's target form (§5's UNNEST collapse, §8's
// multi-FROM blocks)
//
//	SELECT R FROM S₁ v₁, …, Sₙ vₙ WHERE C₁ ∧ … ∧ Cₘ
//
// are built here and only here, both by the translation (Rows, the FROM-order
// tree) and by the planner's join-order search (Leaf, Join and Finish over
// any tree). A source Sᵢ is any plan: a stored table's Scan, or the
// translation of a closed FROM subquery. Every source is wrapped into a
// one-field tuple labeled by its FROM variable, Map[(v = v)](Sᵢ), so
// concatenating join operands never collides, and every expression is
// readdressed from v.a to s.v.a through the variable s of the operator it
// sits on.
//
// Those operator variables are derived from the relation subset the operator
// covers, so equal trees build byte-equal plans, and they differ from every
// name occurring in the block — FROM variables, free variables and binders
// of the conjuncts, the result and the held expressions — so readdressing
// never captures.

// JoinGraph is a flat join block: its relations, its join conjuncts and its
// result, all over the FROM variables.
type JoinGraph struct {
	Rels      []JoinRel
	conjuncts []tmql.Expr
	result    tmql.Expr
	// refs[i] is the relation subset conjunct i references (0: none).
	refs []uint
	// taken holds every name occurring in the block.
	taken map[string]bool
}

// JoinRel is one FROM source: its variable and the plan it ranges over.
// Plans are immutable, so every tree built over the graph shares it.
type JoinRel struct {
	Var  string
	Plan Plan
}

// JoinTree is a built join subtree: its plan, the relation subset it covers,
// the conjuncts it applies, and its rendering over the FROM variables.
type JoinTree struct {
	Plan  Plan
	Mask  uint
	Used  uint
	Label string
}

// NewJoinGraph returns the graph of a flat join block. held are the block's
// other expressions over the FROM variables — conjuncts holding a
// correlated subquery, an enclosing block's correlation — which the caller
// applies over the rows itself: they join nothing, but their names are
// taken.
func NewJoinGraph(rels []JoinRel, conjuncts []tmql.Expr, result tmql.Expr, held ...tmql.Expr) *JoinGraph {
	g := &JoinGraph{Rels: rels, conjuncts: conjuncts, result: result}
	g.taken = tmql.Names(append(append([]tmql.Expr{result}, held...), conjuncts...)...)
	bit := map[string]uint{}
	for i, r := range rels {
		bit[r.Var] = 1 << uint(i)
		g.taken[r.Var] = true
	}
	for _, c := range conjuncts {
		var ref uint
		for v := range tmql.FreeVars(c) {
			ref |= bit[v]
		}
		g.refs = append(g.refs, ref)
	}
	return g
}

// Refs returns, per conjunct, the relation subset it references.
func (g *JoinGraph) Refs() []uint { return g.refs }

// Rows folds the relations in FROM order into a left-deep tree and applies
// the conjuncts no join took (the variable-free ones): the block's rows over
// Var, onto which Readdress moves the result and the held expressions.
func (g *JoinGraph) Rows(b *Builder) (Plan, error) {
	t, err := g.Leaf(b, 0)
	for i := 1; i < len(g.Rels) && err == nil; i++ {
		var r *JoinTree
		if r, err = g.Leaf(b, i); err == nil {
			t, err = g.Join(b, t, r)
		}
	}
	if err != nil {
		return nil, err
	}
	return g.rows(b, t)
}

// Leaf wraps relation i and applies its single-relation conjuncts as a
// selection over the wrap.
func (g *JoinGraph) Leaf(b *Builder, i int) (*JoinTree, error) {
	r := g.Rels[i]
	wrap := &tmql.TupleCons{Fields: []tmql.TupleField{{Label: r.Var, E: &tmql.Var{Name: r.Var}}}}
	t := &JoinTree{Mask: 1 << uint(i), Label: r.Var}
	var err error
	if t.Plan, err = b.Map(r.Plan, r.Var, wrap); err != nil {
		return nil, err
	}
	if pred := g.apply(t, t.Mask, func(ref uint) bool { return ref == t.Mask }); pred != nil {
		t.Plan, err = b.Select(t.Plan, g.varOf(t.Mask), pred)
	}
	return t, err
}

// Join joins two disjoint trees on every unapplied conjunct that references
// relations of both or either and no others.
func (g *JoinGraph) Join(b *Builder, l, r *JoinTree) (*JoinTree, error) {
	t := &JoinTree{Mask: l.Mask | r.Mask, Used: l.Used | r.Used, Label: "(" + l.Label + " " + r.Label + ")"}
	pred := g.apply(t, l.Mask, func(ref uint) bool { return ref != 0 && ref&^t.Mask == 0 })
	if pred == nil {
		pred = &tmql.Lit{V: value.True}
	}
	var err error
	t.Plan, err = b.Join(JoinInner, l.Plan, r.Plan, g.varOf(l.Mask), g.varOf(r.Mask), pred)
	return t, err
}

// Finish caps a tree covering every relation: its rows, then the result
// map.
func (g *JoinGraph) Finish(b *Builder, t *JoinTree) (Plan, error) {
	p, err := g.rows(b, t)
	if err != nil {
		return nil, err
	}
	return b.Map(p, g.Var(), g.Readdress(g.result))
}

// rows applies the conjuncts t left unapplied (the variable-free ones) as a
// selection over t.
func (g *JoinGraph) rows(b *Builder, t *JoinTree) (Plan, error) {
	if pred := g.apply(t, t.Mask, func(uint) bool { return true }); pred != nil {
		return b.Select(t.Plan, g.Var(), pred)
	}
	return t.Plan, nil
}

// Var names the variable the rows of the whole block are iterated as.
func (g *JoinGraph) Var() string { return g.varOf(1<<uint(len(g.Rels)) - 1) }

// Readdress rewrites each free FROM variable v of e to Var().v.
func (g *JoinGraph) Readdress(e tmql.Expr) tmql.Expr {
	return g.readdress(e, 1<<uint(len(g.Rels))-1, 0)
}

// apply marks as used on t every unused conjunct whose references satisfy
// ok, and returns their conjunction readdressed for an operator whose left
// side covers left and right side the rest of t (nil for none).
func (g *JoinGraph) apply(t *JoinTree, left uint, ok func(ref uint) bool) tmql.Expr {
	var parts []tmql.Expr
	for i, ref := range g.refs {
		if t.Used&(1<<uint(i)) == 0 && ok(ref) {
			t.Used |= 1 << uint(i)
			parts = append(parts, g.readdress(g.conjuncts[i], left, t.Mask&^left))
		}
	}
	return tmql.JoinAnd(parts)
}

// readdress rewrites each free FROM variable v of e to s.v, s being the
// variable of the side (left or right relation subset) that holds v.
func (g *JoinGraph) readdress(e tmql.Expr, left, right uint) tmql.Expr {
	side := map[string]string{}
	for i, r := range g.Rels {
		switch bit := uint(1) << uint(i); {
		case left&bit != 0:
			side[r.Var] = g.varOf(left)
		case right&bit != 0:
			side[r.Var] = g.varOf(right)
		}
	}
	return tmql.Rewrite(e, func(n tmql.Expr, bound map[string]int) (tmql.Expr, bool) {
		if v, ok := n.(*tmql.Var); ok && bound[v.Name] == 0 && side[v.Name] != "" {
			return &tmql.FieldSel{X: &tmql.Var{Name: side[v.Name]}, Label: v.Name}, true
		}
		return nil, false
	})
}

// varOf names the operator variable of the relation subset mask.
func (g *JoinGraph) varOf(mask uint) string {
	name := fmt.Sprintf("j%d", mask)
	for g.taken[name] {
		name += "_"
	}
	return name
}

// WrapperLabel reports the label of a single-field wrapper Map[(l = v)](v),
// the shape every flat-join source is wrapped in, or "" for any other Map.
func WrapperLabel(m *Map) string {
	cons, ok := m.Out.(*tmql.TupleCons)
	if !ok || len(cons.Fields) != 1 {
		return ""
	}
	if v, ok := cons.Fields[0].E.(*tmql.Var); ok && v.Name == m.Var {
		return cons.Fields[0].Label
	}
	return ""
}
