package exec

import (
	"context"
	"errors"
	"testing"

	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

func collectBatches(t *testing.T, it BatchIterator) value.Value {
	t.Helper()
	v, err := CollectBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// batchSizes straddles the interesting boundaries: single-row batches, a
// partial final batch, and the default.
var batchSizes = []int{1, 3, 64, DefaultBatchSize}

// TestAdaptersRoundTrip checks rows → batches → rows preserves content and
// order at every batch size.
func TestAdaptersRoundTrip(t *testing.T) {
	rows := genRows(257, 13, "k", "v")
	for _, size := range batchSizes {
		got, err := Drain(&BatchToRows{In: &RowsToBatch{It: &SliceScan{Rows: rows}, Size: size}})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) {
			t.Fatalf("size=%d: %d rows out, want %d", size, len(got), len(rows))
		}
		for i := range rows {
			if !value.Equal(got[i], rows[i]) {
				t.Fatalf("size=%d: row %d differs", size, i)
			}
		}
	}
}

// TestBatchPipelineMatchesRow runs scan → filter → map → distinct in both
// engines at every batch size, with predicates and projections inside and
// outside the compiled subset, asserting canonical equality.
func TestBatchPipelineMatchesRow(t *testing.T) {
	rows := genRows(500, 23, "k", "v")
	cases := []struct {
		name string
		pred string // filter over x
		out  string // projection over x
	}{
		// Compiled: comparisons and field selections only.
		{"compiled", "x.k <= 11", "(a = x.k, b = x.v)"},
		// Conjunction still compiled; projection a bare scalar.
		{"compiled-and", "x.k <= 11 and x.v >= 20", "x.k"},
		// Arithmetic forces the generic fallback on both sides.
		{"generic", "x.v % 3 = 0", "(m = x.v * 2)"},
	}
	for _, tc := range cases {
		ctx := NewCtx(nil)
		row := &Distinct{Ctx: ctx, In: &MapIter{Ctx: ctx, In: &Filter{
			Ctx: ctx, In: &SliceScan{Rows: rows}, Var: "x", Pred: pred(tc.pred)},
			Var: "x", Out: pred(tc.out)}}
		want := collect(t, row)
		for _, size := range batchSizes {
			bctx := NewCtx(nil)
			bat := &BatchDistinct{Ctx: bctx, In: &BatchMap{Ctx: bctx, In: &BatchFilter{
				Ctx: bctx, In: &BatchSliceScan{Rows: rows, Size: size}, Var: "x", Pred: pred(tc.pred)},
				Var: "x", Out: pred(tc.out)}}
			got := collectBatches(t, bat)
			if !value.Equal(got, want) {
				t.Errorf("%s/size=%d: batch differs from row:\nwant %s\ngot  %s", tc.name, size, want, got)
			}
		}
	}
}

// TestCompiledPredicateErrorsMatchGeneric pins error parity: a predicate
// whose field selection fails must produce the evaluator's exact error
// whether it ran compiled or generic.
func TestCompiledPredicateErrorsMatchGeneric(t *testing.T) {
	rows := []value.Value{tup("k", 1, "v", 2)}
	rowIt := &Filter{Ctx: NewCtx(nil), In: &SliceScan{Rows: rows}, Var: "x", Pred: pred("x.missing = 1")}
	_, rowErr := Collect(rowIt)
	batIt := &BatchFilter{Ctx: NewCtx(nil), In: &BatchSliceScan{Rows: rows}, Var: "x", Pred: pred("x.missing = 1")}
	_, batErr := CollectBatches(batIt)
	if rowErr == nil || batErr == nil {
		t.Fatalf("expected errors, got row=%v batch=%v", rowErr, batErr)
	}
	if rowErr.Error() != batErr.Error() {
		t.Errorf("error mismatch:\nrow   %v\nbatch %v", rowErr, batErr)
	}
}

// TestBatchDistinctIdentity checks BatchDistinct's encoding-based dedup
// agrees with the row Distinct's value.Key dedup on values of every kind.
func TestBatchDistinctIdentity(t *testing.T) {
	rows := []value.Value{
		value.Int(1), value.Float(1), // ints normalize to floats in both identities
		value.Int(2), value.Str("2"),
		tup("a", 1, "b", 2), tup("b", 2, "a", 1), // label-sorted: equal tuples
		value.SetOf(value.Int(1), value.Int(2)), value.SetOf(value.Int(2), value.Int(1)),
	}
	want := collect(t, &Distinct{In: &SliceScan{Rows: rows}})
	got := collectBatches(t, &BatchDistinct{Ctx: NewCtx(nil), In: &BatchSliceScan{Rows: rows, Size: 2}})
	if !value.Equal(got, want) {
		t.Errorf("distinct identity mismatch:\nwant %s\ngot  %s", want, got)
	}
}

// mergeSelfJoin is a merge nest join of rows with itself on x.k = y.k, its
// sorted runs built from batches of size rows.
func mergeSelfJoin(ctx *Ctx, rows []value.Value, size int) *MergeNestJoin {
	return &MergeNestJoin{
		Ctx: ctx, L: &BatchSliceScan{Rows: rows, Size: size}, R: &BatchSliceScan{Rows: rows, Size: size},
		LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.k")},
		Fn: pred("y.v"), Label: "g",
	}
}

// TestSortedRunBatchSizes drains the merge nest join at every batch size and
// asserts the emitted sequence — not just the set — is byte-identical to the
// single-row-batch build's: the sorted runs do not depend on batching.
func TestSortedRunBatchSizes(t *testing.T) {
	rows := genRows(500, 23, "k", "v")
	want, err := Drain(mergeSelfJoin(NewCtx(nil), rows, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range batchSizes {
		got, err := Drain(mergeSelfJoin(NewCtx(nil), rows, size))
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
// trips at any batch size.
func TestSortBatchBuildBudget(t *testing.T) {
	rows := genRows(500, 23, "k", "v")
	for _, size := range []int{1, 64} {
		gov := NewGovernor(context.Background(), Limits{MaxBuildBytes: 64})
		_, err := Drain(mergeSelfJoin(NewCtxGoverned(nil, gov), rows, size))
		var be *BudgetError
		if !errors.As(err, &be) || be.Resource != "build_bytes" {
			t.Fatalf("size=%d: want build_bytes BudgetError, got %v", size, err)
		}
	}
}

// TestMergeNestJoinMatchesNL builds the merge nest join's sorted runs at
// every batch size and asserts byte-identity with the nested-loop nest
// join, with and without a residual.
func TestMergeNestJoinMatchesNL(t *testing.T) {
	l, r := genRows(400, 13, "k", "v"), genRows(200, 7, "j", "w")
	lk, rk := []tmql.Expr{pred("x.k")}, []tmql.Expr{pred("y.j")}
	for rname, residual := range map[string]tmql.Expr{"nil": nil, "residual": pred("x.v <= y.w")} {
		want := collect(t, &NLNestJoin{
			Ctx: NewCtx(nil), L: &SliceScan{Rows: l}, R: &SliceScan{Rows: r},
			LVar: "x", RVar: "y", Pred: joinPred("x.k = y.j", residual), Fn: pred("y"), Label: "g",
		})
		for _, size := range batchSizes {
			got := collect(t, &MergeNestJoin{
				Ctx: NewCtx(nil), L: &BatchSliceScan{Rows: l, Size: size}, R: &BatchSliceScan{Rows: r, Size: size},
				LVar: "x", RVar: "y", LKeys: lk, RKeys: rk,
				Residual: residual, Fn: pred("y"), Label: "g",
			})
			if value.Key(got) != value.Key(want) {
				t.Errorf("%s/size=%d: merge nest join differs from nested loops:\nwant %s\ngot  %s", rname, size, want, got)
			}
		}
	}
}
