package algebra

import (
	"strings"
	"testing"

	"tmdb/internal/tmql"
)

// graphOf builds the graph of FROM items vars[i] over the tables
// tables[i].
func graphOf(b *Builder, vars, tables []string, conjuncts []string, result string) *JoinGraph {
	rels := make([]JoinRel, len(vars))
	for i, v := range vars {
		s, err := b.Scan(tables[i])
		if err != nil {
			panic(err)
		}
		rels[i] = JoinRel{Var: v, Plan: s}
	}
	var cs []tmql.Expr
	for _, c := range conjuncts {
		cs = append(cs, tmql.MustParse(c))
	}
	return NewJoinGraph(rels, cs, tmql.MustParse(result))
}

// build is the translation's plan of a pure flat join block: its rows, then
// the result map.
func build(b *Builder, g *JoinGraph) (Plan, error) {
	rows, err := g.Rows(b)
	if err != nil {
		return nil, err
	}
	return b.Map(rows, g.Var(), g.Readdress(g.result))
}

// TestJoinGraphNamesAvoidBlockNames: user variables and binders named like
// the builder's operator variables (j1, j3) are never captured — the plan
// builds, each operator variable gets a suffix until it is fresh, and the
// quantifier keeps its own binder.
func TestJoinGraphNamesAvoidBlockNames(t *testing.T) {
	b := builder()
	g := graphOf(b, []string{"x", "j1"}, []string{"X", "Y"},
		[]string{"x.b = j1.d", "EXISTS j3 IN j1.c (j3 = x.b)"}, "(a = x.b, c = j1.a)")
	p, err := build(b, g)
	if err != nil {
		t.Fatalf("capturing names: %v", err)
	}
	want := "Map[(a = j3_.x.b, c = j3_.j1.a)](j3_)\n" +
		"  Join[j1_.x.b = j2.j1.d AND EXISTS j3 IN j2.j1.c (j3 = j1_.x.b)](j1_, j2)\n"
	if got := Explain(p); !strings.HasPrefix(got, want) {
		t.Errorf("got\n%swant prefix\n%s", got, want)
	}
}

// TestJoinGraphEqualTreesBuildEqualPlans: the FROM-order fold and the same
// tree assembled step by step build byte-equal plans; single-relation
// conjuncts sit over their leaf's wrap and the variable-free one over the
// joins.
func TestJoinGraphEqualTreesBuildEqualPlans(t *testing.T) {
	b := builder()
	g := graphOf(b, []string{"x", "y", "z"}, []string{"X", "Y", "Z"},
		[]string{"x.b = y.d", "y.a < 3", "y.b = z.d", "1 = 1"}, "(xb = x.b, zc = z.c)")
	built, err := build(b, g)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []*JoinTree
	for i := range g.Rels {
		l, err := g.Leaf(b, i)
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, l)
	}
	xy, err := g.Join(b, leaves[0], leaves[1])
	if err != nil {
		t.Fatal(err)
	}
	xyz, err := g.Join(b, xy, leaves[2])
	if err != nil {
		t.Fatal(err)
	}
	stepped, err := g.Finish(b, xyz)
	if err != nil {
		t.Fatal(err)
	}
	if Explain(built) != Explain(stepped) {
		t.Errorf("equal trees built different plans:\n%s\nvs\n%s", Explain(built), Explain(stepped))
	}
	if xyz.Label != "((x y) z)" {
		t.Errorf("label %s", xyz.Label)
	}
	for _, want := range []string{"Select[j2.y.a < 3](j2)", "Select[1 = 1](j7)", "Join[j1.x.b = j2.y.d](j1, j2)"} {
		if !strings.Contains(Explain(built), want) {
			t.Errorf("plan lacks %s:\n%s", want, Explain(built))
		}
	}
}
