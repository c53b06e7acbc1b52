package exec

import (
	"context"
	"errors"
	"testing"

	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// TestCompiledPredicateErrorsMatchGeneric pins error parity: a predicate
// whose field selection fails must produce the evaluator's exact error
// whether it ran compiled or generic.
func TestCompiledPredicateErrorsMatchGeneric(t *testing.T) {
	rows := []value.Value{tup("k", 1, "v", 2)}
	for _, p := range []string{"x.missing = 1", "x.k.z = 1"} {
		_, evalErr := NewCtx(nil).evalPred(pred(p), env1("x", rows[0]))
		it := &Filter{Ctx: NewCtx(nil), In: &SliceScan{Rows: rows}, Var: "x", Pred: pred(p)}
		_, err := CollectBatches(it)
		if evalErr == nil || err == nil {
			t.Fatalf("%s: expected errors, got evaluator=%v filter=%v", p, evalErr, err)
		}
		if evalErr.Error() != err.Error() {
			t.Errorf("%s: error mismatch:\nevaluator %v\nfilter    %v", p, evalErr, err)
		}
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

// mergeSelfJoin is a merge nest join of rows with itself on x.k = y.k, its
// sorted runs built from batches of size rows.
func mergeSelfJoin(ctx *Ctx, rows []value.Value, size int) *MergeNestJoin {
	return &MergeNestJoin{
		Ctx: ctx, L: &SliceScan{Rows: rows, Size: size}, R: &SliceScan{Rows: rows, Size: size},
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
			got := collect(t, &MergeNestJoin{
				Ctx: NewCtx(nil), L: &SliceScan{Rows: l, Size: size}, R: &SliceScan{Rows: r, Size: size},
				LVar: "x", RVar: "y", LKeys: lk, RKeys: rk,
				Residual: residual, Fn: pred("y"), Label: "g",
			})
			if value.Key(got) != value.Key(want) {
				t.Errorf("%s/size=%d: merge nest join differs from nested loops:\nwant %s\ngot  %s", rname, size, want, got)
			}
		}
	}
}
