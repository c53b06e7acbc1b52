package planner

import (
	"fmt"
	"testing"

	"tmdb/internal/algebra"
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

	// Shapes: at degree >= 2 the hash family compiles to its partitioned
	// forms, nested-loop and merge nest joins stay serial; in a batched plan
	// scans and hash flat joins are batch-native and the partitioned exchange
	// is fed batches directly, while everything cold comes back a row
	// operator behind RowsToBatch.
	for _, tc := range []struct {
		name  string
		plan  algebra.Plan
		spec  PhysicalSpec
		want  string
		check func(op any) error
	}{
		{"flat hash ×4", fj, PhysicalSpec{Joins: ImplHash, Degree: 4}, "*exec.ParHashJoin", func(op any) error {
			pj := op.(*exec.ParHashJoin)
			if _, adapted := pj.L.(*exec.RowsToBatch); pj.Degree != 4 || !adapted {
				return fmt.Errorf("degree = %d, L = %T; want 4 over adapted row subtrees", pj.Degree, pj.L)
			}
			return nil
		}},
		{"nest hash ×4", nj, PhysicalSpec{Joins: ImplHash, Degree: 4}, "*exec.ParHashNestJoin", nil},
		{"nest hash ×1", nj, PhysicalSpec{Joins: ImplHash, Degree: 1}, "*exec.HashNestJoin", nil},
		{"nest merge ×4 stays serial", nj, PhysicalSpec{Joins: ImplMerge, Degree: 4}, "*exec.MergeNestJoin", nil},
		{"nest nl ×4 stays serial", nj, PhysicalSpec{Joins: ImplNestedLoop, Degree: 4}, "*exec.NLNestJoin", nil},
		{"batched scan", x, PhysicalSpec{Batch: 64}, "*exec.BatchTableScan", nil},
		{"batched flat equi join", fj, PhysicalSpec{Batch: 64}, "*exec.BatchHashJoin", nil},
		{"batched flat hash ×4", fj, PhysicalSpec{Degree: 4, Batch: 64}, "*exec.ParHashJoin", func(op any) error {
			if pj := op.(*exec.ParHashJoin); fmt.Sprintf("%T %T", pj.L, pj.R) != "*exec.BatchTableScan *exec.BatchTableScan" {
				return fmt.Errorf("partitioned join should be fed batched inputs directly, got %T, %T", pj.L, pj.R)
			}
			return nil
		}},
		{"batched nest hash ×4", nj, PhysicalSpec{Degree: 4, Batch: 64}, "*exec.ParHashNestJoin", nil},
		{"batched serial nest join is cold", nj, PhysicalSpec{Batch: 64}, "*exec.RowsToBatch", nil},
		{"batched nl join is cold", fj, PhysicalSpec{Joins: ImplNestedLoop, Batch: 64}, "*exec.RowsToBatch", nil},
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

	// Equivalence: every operator family × join implementation × degree at
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
		for _, base := range []PhysicalSpec{{}, {Degree: 4}, {Joins: ImplNestedLoop}, {Joins: ImplMerge}} {
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
