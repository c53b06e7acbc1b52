package algebra

import (
	"fmt"

	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Flat join blocks — the paper's target form (§5's UNNEST collapse, §8's
// multi-FROM blocks)
//
//	SELECT R FROM T₁ v₁, …, Tₙ vₙ WHERE C₁ ∧ … ∧ Cₘ
//
// are built here and only here, both by the translation (Build, the FROM-order
// tree) and by the planner's join-order search (Leaf, Join and Finish over
// any tree). Every source is wrapped into a one-field tuple labeled by its
// FROM variable, Map[(v = v)](Scan Tᵢ), so concatenating join operands never
// collides, and every expression is readdressed from v.a to s.v.a through the
// variable s of the operator it sits on.
//
// Those operator variables are derived from the relation subset the operator
// covers, so equal trees build byte-equal plans, and they differ from every
// name occurring in the block — FROM variables, free variables and binders
// of the conjuncts and the result — so readdressing never captures.

// JoinGraph is a flat join block: its relations, its WHERE conjuncts and its
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

// JoinRel is one FROM source: its variable and the extension it scans.
type JoinRel struct {
	Var, Table string
}

// JoinTree is a built join subtree: its plan, the relation subset it covers,
// the conjuncts it applies, and its rendering over the FROM variables.
type JoinTree struct {
	Plan  Plan
	Mask  uint
	Used  uint
	Label string
}

// NewJoinGraph returns the graph of a flat join block.
func NewJoinGraph(rels []JoinRel, conjuncts []tmql.Expr, result tmql.Expr) *JoinGraph {
	g := &JoinGraph{Rels: rels, conjuncts: conjuncts, result: result, taken: map[string]bool{}}
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
		g.take(c)
	}
	g.take(result)
	return g
}

// take records every variable and binder name occurring in e.
func (g *JoinGraph) take(e tmql.Expr) {
	tmql.Walk(e, func(n tmql.Expr) bool {
		switch n := n.(type) {
		case *tmql.Var:
			g.taken[n.Name] = true
		case *tmql.Quant:
			g.taken[n.Var] = true
		case *tmql.Let:
			g.taken[n.V] = true
		case *tmql.SFW:
			for _, f := range n.Froms {
				g.taken[f.Var] = true
			}
		}
		return true
	})
}

// Refs returns, per conjunct, the relation subset it references.
func (g *JoinGraph) Refs() []uint { return g.refs }

// Build folds the relations in FROM order into a left-deep tree and
// finishes it: the translation's plan for the block.
func (g *JoinGraph) Build(b *Builder) (Plan, error) {
	t, err := g.Leaf(b, 0)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(g.Rels); i++ {
		r, err := g.Leaf(b, i)
		if err != nil {
			return nil, err
		}
		if t, err = g.Join(b, t, r); err != nil {
			return nil, err
		}
	}
	return g.Finish(b, t)
}

// Leaf wraps relation i and applies its single-relation conjuncts as a
// selection over the wrap.
func (g *JoinGraph) Leaf(b *Builder, i int) (*JoinTree, error) {
	r := g.Rels[i]
	sp, err := b.Scan(r.Table)
	if err != nil {
		return nil, err
	}
	wrap := &tmql.TupleCons{Fields: []tmql.TupleField{{Label: r.Var, E: &tmql.Var{Name: r.Var}}}}
	t := &JoinTree{Mask: 1 << uint(i), Label: r.Var}
	if t.Plan, err = b.Map(sp, r.Var, wrap); err != nil {
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

// Finish caps a tree covering every relation: the conjuncts it left
// unapplied (the variable-free ones) as a selection, then the result map.
func (g *JoinGraph) Finish(b *Builder, t *JoinTree) (Plan, error) {
	v, plan := g.varOf(t.Mask), t.Plan
	if pred := g.apply(t, t.Mask, func(uint) bool { return true }); pred != nil {
		sel, err := b.Select(plan, v, pred)
		if err != nil {
			return nil, err
		}
		plan = sel
	}
	return b.Map(plan, v, g.readdress(g.result, t.Mask, 0))
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
