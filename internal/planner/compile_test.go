package planner

import (
	"fmt"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/exec"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// TestCompile covers the one compile walk over spec rows: the operator each
// spec puts at the root of a plan, and that every join family computes the
// same canonical result as the nested-loop plan.
func TestCompile(t *testing.T) {
	env := specEnvs(t)["plain"]
	b, ctx := env.b, exec.NewCtx(env.db)
	x, nj, fj := env.plans["scan-x"], env.plans["nest-xy"], env.plans["semi-xz"]

	// Shapes: every join family is one operator, exec.Join, differing in its
	// method; scans feed it directly.
	method := func(want exec.JoinMethod) func(op any) error {
		return func(op any) error {
			j := op.(*exec.Join)
			if j.Method != want {
				return fmt.Errorf("method = %d, want %d", j.Method, want)
			}
			if got := fmt.Sprintf("%T %T", j.L, j.R); got != "*exec.TableScan *exec.TableScan" {
				return fmt.Errorf("inputs = %s, want two table scans", got)
			}
			return nil
		}
	}
	// Identity maps — the variable itself, or a tuple wrapping it — are
	// injective, so below the root they skip deduplication over a
	// duplicate-free scan but not over μ, which emits duplicates. At the
	// root no map deduplicates: the root reports its rows as duplicate-free
	// (or canonical) where the operand map would skip deduplication, and as
	// repeating where it would not, leaving it to the collector.
	operand := func(want bool) func(op any) error {
		return func(op any) error {
			f, ok := op.(*exec.Filter)
			if !ok {
				return fmt.Errorf("%T is not a filter", op)
			}
			if m, ok := f.In.(*exec.Map); !ok || m.Distinct != want {
				return fmt.Errorf("filter over %T, not a map with Distinct = %v", f.In, want)
			}
			return nil
		}
	}
	root := func(op any) error {
		if m, ok := op.(*exec.Map); !ok || m.Distinct {
			return fmt.Errorf("%T is not a map without Distinct", op)
		}
		return nil
	}
	ident := func(in algebra.Plan, v string, wrap bool) algebra.Plan {
		var out tmql.Expr = &tmql.Var{Name: v}
		if wrap {
			out = &tmql.TupleCons{Fields: []tmql.TupleField{{Label: v, E: out}}}
		}
		m, err := b.Map(in, v, out)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	above := func(in algebra.Plan) algebra.Plan {
		v := "v"
		if m, ok := in.(*algebra.Map); ok {
			v = m.Var
		}
		sel, err := b.Select(in, v, tmql.MustParse("TRUE"))
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	unnested, err := b.Unnest(x, "a")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		plan  algebra.Plan
		spec  PhysicalSpec
		want  string
		rows  exec.Rows
		check func(op any) error
	}{
		{"flat hash", fj, PhysicalSpec{Joins: ImplHash}, "*exec.Join", exec.CanonicalRows, method(exec.JoinHash)},
		{"nest hash", nj, PhysicalSpec{Joins: ImplHash}, "*exec.Join", exec.DistinctRows, method(exec.JoinHash)},
		{"nest merge", nj, PhysicalSpec{Joins: ImplMerge}, "*exec.Join", exec.DistinctRows, method(exec.JoinMerge)},
		{"nest nl", nj, PhysicalSpec{Joins: ImplNestedLoop}, "*exec.Join", exec.DistinctRows, method(exec.JoinNL)},
		{"flat nl", fj, PhysicalSpec{Joins: ImplNestedLoop}, "*exec.Join", exec.CanonicalRows, method(exec.JoinNL)},
		{"scan", x, PhysicalSpec{}, "*exec.TableScan", exec.CanonicalRows, nil},
		{"unnest", unnested, PhysicalSpec{}, "*exec.UnnestIter", exec.AnyRows, nil},
		{"identity map over a scan", ident(x, "x", false), PhysicalSpec{}, "*exec.Map", exec.CanonicalRows, root},
		{"wrapping map over a scan", ident(x, "x", true), PhysicalSpec{}, "*exec.Map", exec.DistinctRows, root},
		{"identity map over unnest", ident(unnested, "u", false), PhysicalSpec{}, "*exec.Map", exec.AnyRows, root},
		{"wrapping map over unnest", ident(unnested, "u", true), PhysicalSpec{}, "*exec.Map", exec.AnyRows, root},
		{"identity map over a scan, an operand", above(ident(x, "x", false)), PhysicalSpec{}, "*exec.Filter", exec.CanonicalRows, operand(false)},
		{"wrapping map over a scan, an operand", above(ident(x, "x", true)), PhysicalSpec{}, "*exec.Filter", exec.DistinctRows, operand(false)},
		{"identity map over unnest, an operand", above(ident(unnested, "u", false)), PhysicalSpec{}, "*exec.Filter", exec.DistinctRows, operand(true)},
		{"wrapping map over unnest, an operand", above(ident(unnested, "u", true)), PhysicalSpec{}, "*exec.Filter", exec.DistinctRows, operand(true)},
	} {
		tree, rows, err := compilePlan(ctx, tc.spec, tc.plan)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprintf("%T", tree); got != tc.want {
			t.Errorf("%s: compiled to %s, want %s", tc.name, got, tc.want)
		} else if tc.check != nil {
			if err := tc.check(tree); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
		if rows != tc.rows {
			t.Errorf("%s: the root's rows reported as %d, want %d", tc.name, rows, tc.rows)
		}
	}
	// Equivalence: every operator family × join implementation against the
	// nested-loop plan — and on infeasible specs (merge or pinned hash
	// without an equi-key) a refusal.
	plans := map[string]algebra.Plan{
		"semijoin": fj, "theta-join": env.plans["theta-xz"], "nestjoin": nj,
	}
	y, _ := b.Scan("Y")
	z, _ := b.Scan("Z")
	must := func(name string, p algebra.Plan, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plans[name] = p
	}
	jr, err := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b = z.d AND z.d <= 20"))
	must("join-residual", jr, err)
	njf, err := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b = y.b"), tmql.MustParse("y.a"), "zs")
	must("nestjoin-fn", njf, err)
	sel, _ := b.Select(x, "x", tmql.MustParse("x.b <= 12"))
	proj, err := b.Project(sel, "x", "a", "b")
	must("select-project", proj, err)
	u, err := b.SetOp(algebra.SetUnion, x, x)
	must("union", u, err)
	un, err := b.Unnest(x, "a")
	must("unnest", un, err)
	nst, err := b.Nest(x, []string{"a"}, "g", false)
	must("nest", nst, err)
	nn, err := b.Unnest(njf, "zs")
	must("unnest-over-nestjoin", nn, err)

	run := func(plan algebra.Plan, spec PhysicalSpec) (value.Value, error) {
		tree, _, err := compilePlan(ctx, spec, plan)
		if err != nil {
			return value.Value{}, err
		}
		return exec.CollectBatches(tree)
	}
	for name, plan := range plans {
		want, err := run(plan, PhysicalSpec{Joins: ImplNestedLoop})
		if err != nil {
			t.Fatalf("%s: nested loops: %v", name, err)
		}
		for _, spec := range []PhysicalSpec{{}, {Joins: ImplHash}, {Joins: ImplMerge}} {
			got, err := run(plan, spec)
			if infeasible := implInfeasible(plan, spec.Joins); (infeasible != "") != (err != nil) {
				t.Fatalf("%s/%+v: err %v, infeasible %q", name, spec, err, infeasible)
			}
			if err == nil && !value.Equal(got, want) {
				t.Errorf("%s/%+v: result differs from nested loops:\nwant %s\ngot  %s", name, spec, want, got)
			}
		}
	}
}

// TestCompileGroupjoin: the grouping pipeline Map ∘ Select ∘ NestJoin
// compiles to one fused exec.Join on every family — nested-loop, hash,
// sort-merge and index — with the result of the unfused pipeline. Over a left
// input holding duplicate rows (μ of X's set-valued attribute), the fused
// join below the root is wrapped in the deduplicating map the projection it
// replaces was; at the root it is not, and reports its rows as repeating.
func TestCompileGroupjoin(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{NX: 40, NY: 120, NZ: 10, Keys: 8, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 9})
	b := algebra.NewBuilder(cat)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	nj, err := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b = y.b"), tmql.MustParse("y.a"), "zs")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := b.Select(nj, "x", tmql.MustParse("x.a SUBSETEQ x.zs"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := b.Project(sel, "x", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	ytab, _ := db.Table("Y")
	if err := ytab.CreateIndex("b"); err != nil {
		t.Fatal(err)
	}
	run := func(spec PhysicalSpec) (exec.BatchIterator, value.Value) {
		tree, _, err := compilePlan(exec.NewCtx(db), spec, plan)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		v, err := exec.CollectBatches(tree)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		return tree, v
	}
	// The unfused pipeline: the rule fires on the Map, so its input compiles
	// to the filter over the nest join, and the projection goes on top.
	unfused := func(sel algebra.Plan, plan *algebra.Map) value.Value {
		in, _, err := compilePlan(exec.NewCtx(db), PhysicalSpec{Joins: ImplHash}, sel)
		if err != nil {
			t.Fatal(err)
		}
		v, err := exec.CollectBatches(&exec.Map{Ctx: exec.NewCtx(db), In: in, Var: "x", Out: plan.Out, Distinct: true})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	want := unfused(sel, plan)
	for _, impl := range []JoinImpl{ImplNestedLoop, ImplHash, ImplMerge, ImplIndex} {
		tree, got := run(PhysicalSpec{Joins: impl})
		if j, ok := tree.(*exec.Join); !ok || j.Test == nil {
			t.Errorf("%s compiled to %T, want a fused exec.Join", impl, tree)
		}
		if !value.Equal(got, want) {
			t.Errorf("%s: groupjoin differs from the unfused plan:\nwant %s\ngot  %s", impl, want, got)
		}
	}

	// μ[a](X) emits one (b, a) row per element of x.a; the fixture holds
	// two X rows with the same b sharing an element, so it emits duplicates.
	xtab, _ := db.Table("X")
	seen, dups := map[string]bool{}, 0
	for _, r := range xtab.Rows() {
		for _, e := range r.MustGet("a").Elems() {
			k := value.Key(value.TupleOf(value.F("b", r.MustGet("b")), value.F("a", e)))
			if seen[k] {
				dups++
			}
			seen[k] = true
		}
	}
	if dups == 0 {
		t.Fatal("μ[a](X) emits no duplicates on this fixture")
	}
	u, err := b.Unnest(x, "a")
	if err != nil {
		t.Fatal(err)
	}
	if nj, err = b.NestJoin(u, y, "x", "y", tmql.MustParse("x.b = y.b"), tmql.MustParse("y.a"), "zs"); err != nil {
		t.Fatal(err)
	}
	if sel, err = b.Select(nj, "x", tmql.MustParse("x.a IN x.zs")); err != nil {
		t.Fatal(err)
	}
	if plan, err = b.Project(sel, "x", "b", "a"); err != nil {
		t.Fatal(err)
	}
	want = unfused(sel, plan)
	tree, got := run(PhysicalSpec{Joins: ImplHash})
	if j, ok := tree.(*exec.Join); !ok || j.Test == nil {
		t.Errorf("over a left input with duplicates compiled to %T at the root, want the fused exec.Join", tree)
	}
	if _, rows, _ := compilePlan(exec.NewCtx(db), PhysicalSpec{Joins: ImplHash}, plan); rows != exec.AnyRows {
		t.Errorf("the root groupjoin over duplicates reports its rows as %d, want repeating", rows)
	}
	if !value.Equal(got, want) || got.Len() == 0 {
		t.Errorf("over a left input with duplicates: got %s, want %s", got, want)
	}
	// Below the root, the deduplicating map stays.
	above, err := b.Select(plan, "x", tmql.MustParse("TRUE"))
	if err != nil {
		t.Fatal(err)
	}
	op, _, err := compilePlan(exec.NewCtx(db), PhysicalSpec{Joins: ImplHash}, above)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := op.(*exec.Filter)
	if f == nil {
		t.Fatalf("a selection compiled to %T", op)
	}
	if m, ok := f.In.(*exec.Map); !ok || !m.Distinct {
		t.Errorf("an operand groupjoin over duplicates compiled to %T, want a deduplicating map", f.In)
	} else if j, ok := m.In.(*exec.Join); !ok || j.Test == nil {
		t.Errorf("deduplicating map over %T, want the fused exec.Join", m.In)
	}
}

// TestGroupjoinRuleShapes: the rule fuses only a selection that reads the
// joined row through its fields, under a projection onto exactly the left
// element's labels; everything else keeps the three operators. The join
// family does not matter: sort-merge fuses the same shapes as hash.
func TestGroupjoinRuleShapes(t *testing.T) {
	cat, _ := datagen.XYZ(datagen.Spec{NX: 4, NY: 4, NZ: 4, Keys: 2, SetAttrCard: 2, Seed: 1})
	b := algebra.NewBuilder(cat)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	nj, err := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b = y.b"), tmql.MustParse("y.a"), "zs")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pred   string
		labels []string
		test   string // "" when the stack must not fuse
	}{
		{"x.a SUBSETEQ x.zs", []string{"a", "b"}, "x.a SUBSETEQ zs"},
		{"COUNT(x.zs) >= 2 AND x.b > 0", []string{"b", "a"}, "COUNT(zs) >= 2 AND x.b > 0"},
		{"FORALL w IN x.a (w IN x.zs)", []string{"a", "b"}, "FORALL w IN x.a (w IN zs)"},
		// A binder named x shadows the row: its fields are not the row's.
		{"EXISTS x IN x.zs (x = 1)", []string{"a", "b"}, "EXISTS x IN zs (x = 1)"},
		// The row read whole.
		{"x.a SUBSETEQ x.zs AND x <> x", []string{"a", "b"}, ""},
		// A binder named zs would capture the group variable.
		{"EXISTS zs IN x.a (zs IN x.zs)", []string{"a", "b"}, ""},
		// Projections that are not exactly the left element's labels.
		{"x.a SUBSETEQ x.zs", []string{"a"}, ""},
		{"x.a SUBSETEQ x.zs", []string{"a", "zs"}, ""},
	} {
		sel, err := b.Select(nj, "x", tmql.MustParse(c.pred))
		if err != nil {
			t.Fatalf("%s: %v", c.pred, err)
		}
		m, err := b.Project(sel, "x", c.labels...)
		if err != nil {
			t.Fatalf("%s: %v", c.pred, err)
		}
		got := ""
		if fused, test := groupjoin(m); fused != nil {
			got = tmql.Format(test)
		}
		if got != c.test {
			t.Errorf("%s under %v: fused test %q, want %q", c.pred, c.labels, got, c.test)
		}
		for _, impl := range []JoinImpl{ImplHash, ImplMerge} {
			if op := resolve(m, PhysicalSpec{Joins: impl}, noIndexes); (op.join != nil) != (c.test != "") {
				t.Errorf("%s under %v: %s resolves fused=%v, want %v", c.pred, c.labels, impl, op.join != nil, c.test != "")
			}
		}
	}
}
