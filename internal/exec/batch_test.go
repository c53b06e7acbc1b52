package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
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

// TestBatchHashJoinMatchesRow runs every flat join kind, with and without
// residuals (compiled and generic), at every batch size.
func TestBatchHashJoinMatchesRow(t *testing.T) {
	residuals := map[string]tmql.Expr{
		"nil": nil,
		// In the compiled subset: field-vs-field comparison.
		"compiled": pred("x.v <= y.w"),
		// Arithmetic forces generic residual evaluation.
		"generic": pred("x.v <= y.w + 250"),
	}
	relem := types.Tuple(types.F("j", types.Int), types.F("w", types.Int))
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinSemi, algebra.JoinAnti, algebra.JoinLeftOuter} {
		for rname, residual := range residuals {
			for _, n := range []int{0, 7, 500} {
				l, r := genRows(n, 13, "k", "v"), genRows(n/2, 7, "j", "w")
				ctx := NewCtx(nil)
				serial := &HashJoin{
					Ctx: ctx, Kind: kind, L: &SliceScan{Rows: l}, R: &SliceScan{Rows: r},
					LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")},
					Residual: residual, RElem: relem,
				}
				want := collect(t, serial)
				for _, size := range batchSizes {
					name := fmt.Sprintf("%s/%s/n=%d/size=%d", kind, rname, n, size)
					bctx := NewCtx(nil)
					bj := &BatchHashJoin{
						Ctx: bctx, Kind: kind,
						L: &BatchSliceScan{Rows: l, Size: size}, R: &BatchSliceScan{Rows: r, Size: size},
						LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")},
						Residual: residual, RElem: relem,
					}
					got := collectBatches(t, bj)
					if !value.Equal(got, want) {
						t.Errorf("%s: batch join differs from row:\nwant %s\ngot  %s", name, want, got)
					}
				}
			}
		}
	}
}

// TestParHashJoinBatchedInputs feeds the exchange batch-native inputs and
// streams the output via NextBatch, asserting equality with the serial row
// join.
func TestParHashJoinBatchedInputs(t *testing.T) {
	l, r := genRows(600, 13, "k", "v"), genRows(300, 7, "j", "w")
	relem := types.Tuple(types.F("j", types.Int), types.F("w", types.Int))
	ctx := NewCtx(nil)
	serial := &HashJoin{
		Ctx: ctx, Kind: algebra.JoinInner, L: &SliceScan{Rows: l}, R: &SliceScan{Rows: r},
		LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")},
		RElem: relem,
	}
	want := collect(t, serial)
	for _, size := range batchSizes {
		for _, degree := range []int{2, 4} {
			par := &ParHashJoin{
				Ctx: NewCtx(nil), Kind: algebra.JoinInner,
				L: &BatchSliceScan{Rows: l, Size: size}, R: &BatchSliceScan{Rows: r, Size: size},
				LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")},
				RElem: relem, Degree: degree, BatchSize: size,
			}
			got := collectBatches(t, par)
			if !value.Equal(got, want) {
				t.Errorf("size=%d/p=%d: batched parallel join differs:\nwant %s\ngot  %s", size, degree, want, got)
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
// sorted runs built from row inputs (size 0) or from batches of size rows —
// the two builds of the sorted-run helpers the merge joins share.
func mergeSelfJoin(ctx *Ctx, rows []value.Value, size int) *MergeNestJoin {
	j := &MergeNestJoin{
		Ctx: ctx, LVar: "x", RVar: "y",
		LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.k")},
		Fn: pred("y.v"), Label: "g",
	}
	if size > 0 {
		j.BL, j.BR = &BatchSliceScan{Rows: rows, Size: size}, &BatchSliceScan{Rows: rows, Size: size}
	} else {
		j.L, j.R = &SliceScan{Rows: rows}, &SliceScan{Rows: rows}
	}
	return j
}

// TestSortBatchBuildMatchesRow drains the merge nest join through its
// batch-native sorted-run build at every batch size and asserts the emitted
// sequence — not just the set — is byte-identical to the row build's.
func TestSortBatchBuildMatchesRow(t *testing.T) {
	rows := genRows(500, 23, "k", "v")
	want, err := Drain(mergeSelfJoin(NewCtx(nil), rows, 0))
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
				t.Fatalf("size=%d: row %d differs from row build", size, i)
			}
		}
	}
}

// TestSortBatchBuildBudget pins the batched sorted-run build's governance:
// the flat per-row build charge is still accounted (summed per batch), so a
// build budget trips exactly as it does on the row path.
func TestSortBatchBuildBudget(t *testing.T) {
	rows := genRows(500, 23, "k", "v")
	for _, size := range []int{0, 64} {
		gov := NewGovernor(context.Background(), Limits{MaxBuildBytes: 64})
		_, err := Drain(mergeSelfJoin(NewCtxGoverned(nil, gov), rows, size))
		var be *BudgetError
		if !errors.As(err, &be) || be.Resource != "build_bytes" {
			t.Fatalf("size=%d: want build_bytes BudgetError, got %v", size, err)
		}
	}
}

// TestMergeNestJoinBatchedInputs builds the merge nest join's sorted runs
// from batch inputs (BL/BR) at every batch size and asserts byte-identity
// with the row-input build, with and without a residual.
func TestMergeNestJoinBatchedInputs(t *testing.T) {
	l, r := genRows(400, 13, "k", "v"), genRows(200, 7, "j", "w")
	lk, rk := []tmql.Expr{pred("x.k")}, []tmql.Expr{pred("y.j")}
	for rname, residual := range map[string]tmql.Expr{"nil": nil, "residual": pred("x.v <= y.w")} {
		want := collect(t, &MergeNestJoin{
			Ctx: NewCtx(nil), L: &SliceScan{Rows: l}, R: &SliceScan{Rows: r},
			LVar: "x", RVar: "y", LKeys: lk, RKeys: rk,
			Residual: residual, Fn: pred("y"), Label: "g",
		})
		for _, size := range batchSizes {
			got := collect(t, &MergeNestJoin{
				Ctx: NewCtx(nil), BL: &BatchSliceScan{Rows: l, Size: size}, BR: &BatchSliceScan{Rows: r, Size: size},
				LVar: "x", RVar: "y", LKeys: lk, RKeys: rk,
				Residual: residual, Fn: pred("y"), Label: "g",
			})
			if value.Key(got) != value.Key(want) {
				t.Errorf("%s/size=%d: batched merge nest join differs:\nwant %s\ngot  %s", rname, size, want, got)
			}
		}
	}
}
