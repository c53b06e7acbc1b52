package exec

import (
	"context"
	"errors"
	"testing"

	"tmdb/internal/eval"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// TestCompiledPredicateErrorsMatchGeneric pins error parity: an expression
// whose field selection fails must produce the evaluator's exact error
// whether it ran compiled or generic — a filter predicate, a tuple
// constructor inside a nest-join function, a sort-merge key over a
// non-tuple. A predicate mixing the compiled subset with a quantifier falls
// back whole: the filter spends exactly the evaluator's own steps on it.
func TestCompiledPredicateErrorsMatchGeneric(t *testing.T) {
	row, yrow := tup("k", 1, "v", 2), tup("j", 1, "w", 2)
	x := (*eval.Env)(nil).Bind("x", row)
	evalErr := func(e string, env *eval.Env) error {
		_, err := eval.New(nil).EvalEnv(pred(e), env)
		return err
	}
	filter := func(p string) BatchIterator {
		return &Filter{Ctx: NewCtx(nil), In: &SliceScan{Rows: []value.Value{row}}, Var: "x", Pred: pred(p)}
	}
	nestJoin := func(method JoinMethod, l value.Value, fn string) BatchIterator {
		return &Join{Ctx: NewCtx(nil), Method: method, L: &SliceScan{Rows: []value.Value{l}}, R: &SliceScan{Rows: []value.Value{yrow}},
			LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")}, Fn: pred(fn), Label: "s"}
	}
	const fn = "(a = y.j, b = y.missing)"
	if compileScalar2(pred(fn), nil, "x", "y") == nil {
		t.Fatalf("%s is outside the compiled subset", fn)
	}
	for _, c := range []struct {
		name string
		want error
		it   BatchIterator
	}{
		{"filter/missing", evalErr("x.missing = 1", x), filter("x.missing = 1")},
		{"filter/non-tuple", evalErr("x.k.z = 1", x), filter("x.k.z = 1")},
		{"nest-join fn", evalErr(fn, x.Bind("y", yrow)), nestJoin(JoinHash, row, fn)},
		{"merge key", evalErr("x.k", (*eval.Env)(nil).Bind("x", value.Int(7))), nestJoin(JoinMerge, value.Int(7), "y")},
	} {
		_, err := CollectBatches(c.it)
		if c.want == nil || err == nil {
			t.Fatalf("%s: expected errors, got evaluator=%v operator=%v", c.name, c.want, err)
		}
		if c.want.Error() != err.Error() {
			t.Errorf("%s: error mismatch:\nevaluator %v\noperator  %v", c.name, c.want, err)
		}
	}

	const mixed = "x.b = 1 AND FORALL e IN x.c (e > 1)"
	if compilePred2(pred(mixed), nil, "x", "") != nil {
		t.Fatalf("%s compiled", mixed)
	}
	rows := []value.Value{tup("b", 1, "c", ints(2, 3)), tup("b", 1, "c", ints(1)), tup("b", 2, "c", ints(5))}
	ev := eval.New(nil)
	var want []value.Value
	for _, r := range rows {
		v, err := ev.EvalEnv(pred(mixed), (*eval.Env)(nil).Bind("x", r))
		if err != nil {
			t.Fatal(err)
		}
		if v.AsBool() {
			want = append(want, r)
		}
	}
	ctx := NewCtx(nil)
	got := collect(t, &Filter{Ctx: ctx, In: &SliceScan{Rows: rows}, Var: "x", Pred: pred(mixed)})
	if !value.Equal(got, value.SetOf(want...)) {
		t.Errorf("%s: got %s, want %s", mixed, got, value.SetOf(want...))
	}
	if ctx.Ev.Steps != ev.Steps {
		t.Errorf("%s: filter spent %d evaluator steps, the whole-expression evaluator %d", mixed, ctx.Ev.Steps, ev.Steps)
	}
}

// TestBatchDistinctIdentity checks the deduplicating map's encoding-based dedup
// agrees with value.Key's identity on values of every kind, across batch
// boundaries.
func TestBatchDistinctIdentity(t *testing.T) {
	rows := []value.Value{
		value.Int(1), value.Float(1), // ints normalize to floats in both identities
		value.Int(2), value.Str("2"),
		tup("a", 1, "b", 2), tup("b", 2, "a", 1), // label-sorted: equal tuples
		value.SetOf(value.Int(1), value.Int(2)), value.SetOf(value.Int(2), value.Int(1)),
	}
	keys := map[string]bool{}
	for _, r := range rows {
		keys[value.Key(r)] = true
	}
	for _, size := range splitSizes {
		got, err := drainRows(&Map{Ctx: NewCtx(nil), In: &SliceScan{Rows: rows, Size: size}, Var: "v", Out: pred("v"), Distinct: true})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range got {
			seen[value.Key(r)] = true
		}
		if len(got) != len(keys) || len(seen) != len(keys) {
			t.Errorf("size=%d: %d rows out (%d distinct), want the %d distinct values", size, len(got), len(seen), len(keys))
		}
	}
}

// mergeSelfJoin is a sort-merge nest join of rows with itself on x.k = y.k,
// its sorted runs built from batches of size rows.
func mergeSelfJoin(ctx *Ctx, rows []value.Value, size int) *Join {
	return &Join{
		Ctx: ctx, Method: JoinMerge, L: &SliceScan{Rows: rows, Size: size}, R: &SliceScan{Rows: rows, Size: size},
		LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.k")},
		Fn: pred("y.v"), Label: "g",
	}
}

// TestSortedRunBatchSizes drains the merge nest join at every split size and
// asserts the emitted sequence — not just the set — is byte-identical to the
// single-row-batch build's: the sorted runs do not depend on batching.
func TestSortedRunBatchSizes(t *testing.T) {
	rows := genRows(500, 23, "k", "v")
	want, err := drainRows(mergeSelfJoin(NewCtx(nil), rows, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range splitSizes {
		got, err := drainRows(mergeSelfJoin(NewCtx(nil), rows, size))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("size=%d: %d rows out, want %d", size, len(got), len(want))
		}
		for i := range want {
			if value.Key(got[i]) != value.Key(want[i]) {
				t.Fatalf("size=%d: row %d differs from the size-1 build", size, i)
			}
		}
	}
}

// TestSortBatchBuildBudget pins the sorted-run build's governance: the flat
// per-row build charge is accounted (summed per batch), so a build budget
// trips at any split size.
func TestSortBatchBuildBudget(t *testing.T) {
	rows := genRows(500, 23, "k", "v")
	for _, size := range splitSizes {
		gov := NewGovernor(context.Background(), Limits{MaxBuildBytes: 64})
		_, err := drainRows(mergeSelfJoin(NewCtxGoverned(nil, gov), rows, size))
		var be *BudgetError
		if !errors.As(err, &be) || be.Resource != "build_bytes" {
			t.Fatalf("size=%d: want build_bytes BudgetError, got %v", size, err)
		}
	}
}

// TestMergeNestJoinMatchesNL builds the merge nest join's sorted runs at
// every split size and asserts byte-identity with the nested-loop nest
// join, with and without a residual.
func TestMergeNestJoinMatchesNL(t *testing.T) {
	l, r := genRows(400, 13, "k", "v"), genRows(200, 7, "j", "w")
	lk, rk := []tmql.Expr{pred("x.k")}, []tmql.Expr{pred("y.j")}
	for rname, residual := range map[string]tmql.Expr{"nil": nil, "residual": pred("x.v <= y.w")} {
		ref := nlNestJoin(l, r, joinPred("x.k = y.j", residual))
		ref.Label = "g"
		want := collect(t, ref)
		for _, size := range splitSizes {
			got := collect(t, &Join{
				Ctx: NewCtx(nil), Method: JoinMerge, L: &SliceScan{Rows: l, Size: size}, R: &SliceScan{Rows: r, Size: size},
				LVar: "x", RVar: "y", LKeys: lk, RKeys: rk,
				Residual: residual, Fn: pred("y"), Label: "g",
			})
			if value.Key(got) != value.Key(want) {
				t.Errorf("%s/size=%d: merge nest join differs from nested loops:\nwant %s\ngot  %s", rname, size, want, got)
			}
		}
	}
}
