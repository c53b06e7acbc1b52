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

// root returns the tree's root operator in whichever protocol it speaks.
func root(t Tree) any {
	if t.Batches != nil {
		return t.Batches
	}
	return t.Rows
}

// TestCompile covers the one compile walk over spec rows: the operator each
// spec puts at the root of a plan, and that a batched plan computes the same
// canonical result as the row-at-a-time plan of the same spec.
func TestCompile(t *testing.T) {
	env := specEnvs(t)["plain"]
	b, ctx := env.b, exec.NewCtx(env.db)
	x, nj, fj := env.plans["scan-x"], env.plans["nest-xy"], env.plans["semi-xz"]

	// Shapes: the hash family is one operator per join kind, batch-native in
	// every plan — fed batches directly in a batched plan and through
	// RowsToBatch in a row plan, whose root comes back through BatchToRows;
	// in a batched plan scans are batch-native too, while row operators come
	// back behind RowsToBatch.
	hashInputs := func(inputs string) func(op any) error {
		return func(op any) error {
			var l, r exec.BatchIterator
			switch j := op.(type) {
			case *exec.HashJoin:
				l, r = j.L, j.R
			case *exec.HashNestJoin:
				l, r = j.L, j.R
			}
			if got := fmt.Sprintf("%T %T", l, r); got != inputs {
				return fmt.Errorf("inputs = %s, want %s", got, inputs)
			}
			return nil
		}
	}
	const adapted, batched = "*exec.RowsToBatch *exec.RowsToBatch", "*exec.BatchTableScan *exec.BatchTableScan"
	// Identity maps — the variable itself, or a tuple wrapping it — are
	// injective, so they skip the Distinct over a duplicate-free scan but not
	// over μ, which emits duplicates.
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
	unnested, err := b.Unnest(x, "a")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		plan  algebra.Plan
		spec  PhysicalSpec
		want  string
		check func(op any) error
	}{
		{"flat hash", fj, PhysicalSpec{Joins: ImplHash}, "*exec.BatchToRows", func(op any) error {
			return hashInputs(adapted)(op.(*exec.BatchToRows).In)
		}},
		{"nest hash", nj, PhysicalSpec{Joins: ImplHash}, "*exec.BatchToRows", func(op any) error {
			return hashInputs(adapted)(op.(*exec.BatchToRows).In)
		}},
		{"nest merge", nj, PhysicalSpec{Joins: ImplMerge}, "*exec.MergeNestJoin", nil},
		{"nest nl", nj, PhysicalSpec{Joins: ImplNestedLoop}, "*exec.NLNestJoin", nil},
		{"batched scan", x, PhysicalSpec{Batch: 64}, "*exec.BatchTableScan", nil},
		{"batched flat equi join", fj, PhysicalSpec{Batch: 64}, "*exec.HashJoin", hashInputs(batched)},
		{"batched nest join is batch-native", nj, PhysicalSpec{Batch: 64}, "*exec.HashNestJoin", hashInputs(batched)},
		{"batched nl join is cold", fj, PhysicalSpec{Joins: ImplNestedLoop, Batch: 64}, "*exec.RowsToBatch", nil},
		{"identity map over a scan", ident(x, "x", false), PhysicalSpec{}, "*exec.MapIter", nil},
		{"wrapping map over a scan", ident(x, "x", true), PhysicalSpec{Batch: 64}, "*exec.BatchMap", nil},
		{"identity map over unnest", ident(unnested, "u", false), PhysicalSpec{}, "*exec.Distinct", nil},
		{"wrapping map over unnest", ident(unnested, "u", true), PhysicalSpec{Batch: 64}, "*exec.BatchDistinct", nil},
	} {
		tree, err := New(ctx, tc.spec).Compile(tc.plan)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprintf("%T", root(tree)); got != tc.want {
			t.Errorf("%s: compiled to %s, want %s", tc.name, got, tc.want)
		} else if tc.check != nil {
			if err := tc.check(root(tree)); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}
	// An unsealed table's rows are appended without deduplication, so an
	// identity map over its scan keeps the Distinct.
	_, udb := datagen.XYZ(datagen.DefaultSpec())
	utab, _ := udb.Table("X")
	utab.Unseal()
	if tree, err := New(exec.NewCtx(udb), PhysicalSpec{}).Compile(ident(x, "x", false)); err != nil || fmt.Sprintf("%T", root(tree)) != "*exec.Distinct" {
		t.Errorf("identity map over an unsealed scan compiled to %T (%v), want *exec.Distinct", root(tree), err)
	}

	// Equivalence: every operator family × join implementation at
	// every batch size against the row plan — and on infeasible specs (merge
	// or pinned hash without an equi-key) the same refusal.
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
	// Cold over cold: no adapter pair between adjacent row operators.
	nn, err := b.Unnest(njf, "zs")
	must("unnest-over-nestjoin", nn, err)

	run := func(plan algebra.Plan, spec PhysicalSpec) (value.Value, error) {
		tree, err := New(ctx, spec).Compile(plan)
		if err != nil {
			return value.Value{}, err
		}
		return tree.Collect(nil)
	}
	for name, plan := range plans {
		for _, base := range []PhysicalSpec{{}, {Joins: ImplNestedLoop}, {Joins: ImplMerge}} {
			want, rowErr := run(plan, base)
			for _, size := range []int{1, 3, exec.DefaultBatchSize} {
				spec := base
				spec.Batch = size
				got, batErr := run(plan, spec)
				if (rowErr == nil) != (batErr == nil) {
					t.Fatalf("%s/%+v: row err %v, batch err %v", name, spec, rowErr, batErr)
				}
				if rowErr == nil && !value.Equal(got, want) {
					t.Errorf("%s/%+v: batch result differs from row:\nwant %s\ngot  %s", name, spec, want, got)
				}
			}
		}
	}
}
