package planner

import (
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/exec"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// fusionEnv returns a builder over a small XYZ database with an index on
// Z(d), and a helper that builds plans or fails the test.
func fusionEnv(t *testing.T) (*algebra.Builder, func(algebra.Plan, error) algebra.Plan, *exec.Ctx) {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{NX: 40, NY: 120, NZ: 30, Keys: 8, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 9})
	if err := db.CreateIndex("Z", "d"); err != nil {
		t.Fatal(err)
	}
	must := func(p algebra.Plan, err error) algebra.Plan {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return algebra.NewBuilder(cat), must, exec.NewCtx(db)
}

// TestProjectionFusionShapes pins the rule: a Map over an inner or
// left-outer join, or a nest join, fuses when its output reads the joined
// row only through fields and compiles; the fused output reads each field
// off the row that has it, the nest join's label off the group. Operands
// bind their wrapped rows where every expression reads them through the
// wrap and the join does not emit them.
func TestProjectionFusionShapes(t *testing.T) {
	b, must, _ := fusionEnv(t)
	x := must(b.Scan("X"))
	y := must(b.Scan("Y"))
	z := must(b.Scan("Z"))
	wrap := func(p algebra.Plan, v string) algebra.Plan {
		return must(b.Map(p, v, &tmql.TupleCons{Fields: []tmql.TupleField{{Label: v, E: &tmql.Var{Name: v}}}}))
	}
	wx := must(b.Select(wrap(x, "x"), "j1", tmql.MustParse("j1.x.b < 5")))
	wy := wrap(y, "y")
	inner := must(b.Join(algebra.JoinInner, wx, wy, "j1", "j2", tmql.MustParse("j1.x.b = j2.y.d")))
	whole := must(b.Join(algebra.JoinInner, must(b.Select(wrap(x, "x"), "j1", tmql.MustParse("j1 = j1"))), wy,
		"j1", "j2", tmql.MustParse("j1.x.b = j2.y.d")))
	outer := must(b.Join(algebra.JoinLeftOuter, x, wrap(z, "z"), "x", "r", tmql.MustParse("x.b = r.z.d")))
	semi := must(b.Join(algebra.JoinSemi, x, wy, "x", "r", tmql.MustParse("x.b = r.y.d")))
	nest := must(b.NestJoin(x, wy, "x", "r", tmql.MustParse("x.b = r.y.b"), tmql.MustParse("r.y.a"), "zs"))
	for _, c := range []struct {
		name string
		in   algebra.Plan
		v    string
		out  string
		want string // "" when the map must not fuse
		wrap [2]string
	}{
		{"fields of both rows", inner, "j3", "(b = j3.x.b, a = j3.y.a)", "(b = j1.x.b, a = j2.y.a)", [2]string{"x", "y"}},
		{"a field of a field", inner, "j3", "j3.y.c", "j2.y.c", [2]string{"x", "y"}},
		{"an aggregate and a literal", inner, "j3", "(n = COUNT(j3.y.c), k = 1)", "(n = COUNT(j2.y.c), k = 1)", [2]string{"x", "y"}},
		{"a selection reading the row whole keeps its wrap", whole, "j3", "j3.y.a", "j2.y.a", [2]string{"", "y"}},
		{"the outer join pads its wrapped right row", outer, "o", "(b = o.b, d = o.z.d)", "(b = x.b, d = r.z.d)", [2]string{}},
		{"the nest join's label is its group", nest, "x", "(b = x.b, m = MAX(x.zs))", "(b = x.b, m = MAX(zs))", [2]string{"", "y"}},
		{"the nest join under another variable", nest, "v", "(a = v.a, s = v.zs)", "(a = x.a, s = zs)", [2]string{"", "y"}},
		{"the row read whole", inner, "j3", "(r = j3)", "", [2]string{}},
		{"not compiled", inner, "j3", "j3.x.b + 1", "", [2]string{}},
		{"over a semijoin", semi, "x", "x.b", "", [2]string{}},
	} {
		m := must(b.Map(c.in, c.v, tmql.MustParse(c.out))).(*algebra.Map)
		got := ""
		if j, out := projection(m); j != nil {
			got = tmql.Format(out)
		}
		if got != c.want {
			t.Errorf("%s: fused output %q, want %q", c.name, got, c.want)
		}
		op := resolve(m, PhysicalSpec{Joins: ImplHash}, noIndexes).join
		if (op != nil) != (c.want != "") || op != nil && op.wrap != c.wrap {
			t.Errorf("%s: resolves fused=%v, want %v with wraps %q", c.name, op != nil, c.want != "", c.wrap)
		}
	}
	// Unfused, a semijoin still binds the right operand's wrapped rows, and
	// an inner join emitting its joined rows binds neither.
	if op := resolve(semi, PhysicalSpec{}, noIndexes).join; op.wrap != [2]string{"", "y"} {
		t.Errorf("semijoin wraps %q, want the right one bound", op.wrap)
	}
	if op := resolve(inner, PhysicalSpec{}, noIndexes).join; op.wrap != [2]string{} {
		t.Errorf("unfused inner join wraps %q, want none bound", op.wrap)
	}
}

// TestFusedProjectionMatchesUnfused: a fused projection computes what the
// map over the unfused join does, on every join family, the left-outer
// join's pad and the nest join's empty groups included, and fails where it
// fails: MAX over a dangling row's empty group.
func TestFusedProjectionMatchesUnfused(t *testing.T) {
	b, must, ctx := fusionEnv(t)
	x := must(b.Scan("X"))
	y := must(b.Scan("Y"))
	z := must(b.Scan("Z"))
	wrap := func(p algebra.Plan, v string) algebra.Plan {
		return must(b.Map(p, v, &tmql.TupleCons{Fields: []tmql.TupleField{{Label: v, E: &tmql.Var{Name: v}}}}))
	}
	inner := must(b.Join(algebra.JoinInner, must(b.Select(wrap(x, "x"), "j1", tmql.MustParse("j1.x.b < 6"))),
		must(b.Select(wrap(y, "y"), "j2", tmql.MustParse("j2.y.a < 4"))), "j1", "j2", tmql.MustParse("j1.x.b = j2.y.d")))
	outer := must(b.Join(algebra.JoinLeftOuter, x, z, "x", "z", tmql.MustParse("x.b = z.d")))
	nest := must(b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b = y.b"), tmql.MustParse("y.a"), "zs"))
	for _, c := range []struct {
		name, v, out string
		in           algebra.Plan
		fails        bool
	}{
		{"inner", "j3", "(b = j3.x.b, a = j3.y.a)", inner, false},
		{"inner, one field", "j3", "j3.x.b", inner, false},
		{"left outer", "o", "(b = o.b, d = o.d)", outer, false},
		{"nest", "x", "(b = x.b, s = x.zs)", nest, false},
		{"nest, MAX of a dangling group", "x", "(b = x.b, m = MAX(x.zs))", nest, true},
	} {
		m := must(b.Map(c.in, c.v, tmql.MustParse(c.out))).(*algebra.Map)
		in, _, err := compilePlan(ctx, PhysicalSpec{Joins: ImplNestedLoop}, c.in)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := exec.CollectBatches(&exec.Map{Ctx: ctx, In: in, Var: m.Var, Out: m.Out, Distinct: needsDistinct(m)})
		if (wantErr != nil) != c.fails {
			t.Fatalf("%s: the unfused pipeline returned error %v", c.name, wantErr)
		}
		if c.in == outer && !strings.Contains(want.String(), "NULL") {
			t.Fatalf("%s: no X row dangles, so no pad is projected", c.name)
		}
		for _, impl := range []JoinImpl{ImplNestedLoop, ImplHash, ImplMerge, ImplIndex} {
			tree, _, err := compilePlan(ctx, PhysicalSpec{Joins: impl}, m)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, impl, err)
			}
			j, ok := tree.(*exec.Join)
			if d, isMap := tree.(*exec.Map); isMap {
				j, ok = d.In.(*exec.Join)
			}
			if !ok || j.Out == nil {
				t.Errorf("%s/%s compiled to %T, want a fused exec.Join", c.name, impl, tree)
			}
			got, err := exec.CollectBatches(tree)
			switch {
			case c.fails:
				if err == nil || err.Error() != wantErr.Error() {
					t.Errorf("%s/%s: error %v, want %v", c.name, impl, err, wantErr)
				}
			case err != nil:
				t.Errorf("%s/%s: %v", c.name, impl, err)
			case !value.Equal(got, want) || got.Len() == 0:
				t.Errorf("%s/%s: fused projection differs from the unfused pipeline:\nwant %s\ngot  %s", c.name, impl, want, got)
			}
		}
	}
}
