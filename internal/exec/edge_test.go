package exec

import (
	"errors"
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// failingIter errors on Open or on the nth Next, for error-propagation
// tests.
type failingIter struct {
	failOpen bool
	n        int
	i        int
}

func (f *failingIter) Open() error {
	if f.failOpen {
		return errors.New("boom-open")
	}
	return nil
}

func (f *failingIter) Next() (value.Value, bool, error) {
	if f.i >= f.n {
		return value.Value{}, false, errors.New("boom-next")
	}
	f.i++
	return value.TupleOf(value.F("k", value.Int(int64(f.i)))), true, nil
}

func (f *failingIter) Close() error { return nil }

// operatorOf names the operator beneath a BatchToRows adapter.
func operatorOf(it Iterator) any {
	if a, ok := it.(*BatchToRows); ok {
		return a.In
	}
	return it
}

func TestErrorPropagation(t *testing.T) {
	ctx := NewCtx(nil)
	iters := []Iterator{
		&Filter{Ctx: ctx, In: &failingIter{failOpen: true}, Var: "x", Pred: pred("TRUE")},
		&MapIter{Ctx: ctx, In: &failingIter{n: 1}, Var: "x", Out: pred("x.k")},
		&MergeNestJoin{Ctx: ctx, L: &RowsToBatch{It: &failingIter{n: 2}}, R: &BatchSliceScan{}, LVar: "x", RVar: "y",
			LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.k")}, Fn: pred("y"), Label: "s"},
		&Distinct{In: &failingIter{n: 1}},
		&NLJoin{Ctx: ctx, Kind: algebra.JoinInner, L: &SliceScan{}, R: &failingIter{failOpen: true},
			LVar: "x", RVar: "y", Pred: pred("TRUE")},
		&NestIter{In: &failingIter{n: 2}, Attrs: []string{"k"}, Label: "s"},
		&UnnestIter{In: &failingIter{n: 1}, Attr: "k"},
		&SetOpIter{Kind: 0, L: &SliceScan{}, R: &failingIter{n: 1}},
	}
	for _, degree := range []int{1, 4} {
		iters = append(iters, &BatchToRows{In: &HashNestJoin{
			Ctx: ctx, L: &BatchSliceScan{}, R: &RowsToBatch{It: &failingIter{n: 1}},
			LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.k")},
			Fn: pred("y"), Label: "s", Degree: degree,
		}}, &BatchToRows{In: &HashJoin{
			Ctx: ctx, Kind: algebra.JoinInner, L: &RowsToBatch{It: &failingIter{n: 1}}, R: &BatchSliceScan{},
			LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.k")},
			Degree: degree,
		}})
	}
	for _, it := range iters {
		if _, err := Collect(it); err == nil {
			t.Errorf("%T should surface input errors", operatorOf(it))
		}
	}
}

func TestPredicateTypeErrors(t *testing.T) {
	ctx := NewCtx(nil)
	rows := []value.Value{tup("k", 1)}
	// Predicate yields a non-boolean.
	f := &Filter{Ctx: ctx, In: &SliceScan{Rows: rows}, Var: "x", Pred: pred("x.k + 1")}
	if _, err := Collect(f); err == nil || !strings.Contains(err.Error(), "not BOOL") {
		t.Errorf("non-boolean predicate: %v", err)
	}
	// Predicate references missing field.
	f2 := &Filter{Ctx: ctx, In: &SliceScan{Rows: rows}, Var: "x", Pred: pred("x.nosuch = 1")}
	if _, err := Collect(f2); err == nil {
		t.Error("missing field should error at evaluation")
	}
}

func TestJoinsOnEmptyInputs(t *testing.T) {
	ctx := NewCtx(nil)
	rows := []value.Value{tup("e", 1, "d", 1)}
	yElem := yElemType()

	// Empty right side.
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinSemi, algebra.JoinAnti, algebra.JoinLeftOuter} {
		nl := &NLJoin{Ctx: ctx, Kind: kind, L: &SliceScan{Rows: rows}, R: &SliceScan{},
			LVar: "x", RVar: "y", Pred: pred("x.d = y.b"), RElem: yElem}
		got := collect(t, nl)
		switch kind {
		case algebra.JoinInner, algebra.JoinSemi:
			if got.Len() != 0 {
				t.Errorf("%s on empty right: %s", kind, got)
			}
		case algebra.JoinAnti:
			if got.Len() != 1 {
				t.Errorf("antijoin on empty right should keep left: %s", got)
			}
		case algebra.JoinLeftOuter:
			if got.Len() != 1 {
				t.Errorf("outer join on empty right should pad: %s", got)
			}
		}
	}

	// Empty left side: everything empty.
	for _, degree := range []int{1, 4} {
		hj := &HashJoin{Ctx: ctx, Kind: algebra.JoinInner, L: &BatchSliceScan{}, R: &BatchSliceScan{Rows: rows},
			LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.d")}, RKeys: []tmql.Expr{pred("y.e")}, Degree: degree}
		if got := collectBatches(t, hj); got.Len() != 0 {
			t.Errorf("p=%d: hash join on empty left: %s", degree, got)
		}
	}

	// Nest join on empty right: every left extended with ∅.
	for _, it := range nestJoinIters(ctx, rows, nil) {
		got := collect(t, it)
		if got.Len() != 1 || !got.Elems()[0].MustGet("s").IsEmptySet() {
			t.Errorf("nest join on empty right: %s", got)
		}
	}
	// Nest join on empty left: empty.
	_, ys := xyRows()
	for name, it := range nestJoinIters(ctx, nil, ys) {
		if got := collect(t, it); got.Len() != 0 {
			t.Errorf("%s nest join on empty left: %s", name, got)
		}
	}
}

func TestMergeNestJoinDuplicateKeys(t *testing.T) {
	// Many left rows sharing a key; right runs must be re-scanned per left
	// element without losing group members.
	var xs, ys []value.Value
	for i := 0; i < 4; i++ {
		xs = append(xs, tup("e", i, "d", 1))
	}
	for i := 0; i < 3; i++ {
		ys = append(ys, tup("a", 10+i, "b", 1))
	}
	ys = append(ys, tup("a", 99, "b", 2))
	mj := &MergeNestJoin{
		Ctx: NewCtx(nil), L: &BatchSliceScan{Rows: xs}, R: &BatchSliceScan{Rows: ys},
		LVar: "x", RVar: "y",
		LKeys: []tmql.Expr{pred("x.d")}, RKeys: []tmql.Expr{pred("y.b")},
		Fn: pred("y.a"), Label: "s",
	}
	got := collect(t, mj)
	if got.Len() != 4 {
		t.Fatalf("expected 4 groups, got %s", got)
	}
	for _, r := range got.Elems() {
		if !value.Equal(r.MustGet("s"), ints(10, 11, 12)) {
			t.Errorf("group wrong: %s", r)
		}
	}
}

func TestNestJoinDuplicateFnImages(t *testing.T) {
	// Two right rows mapping to the same G image: the group is a set and
	// must deduplicate.
	xs := []value.Value{tup("e", 1, "d", 1)}
	ys := []value.Value{tup("a", 5, "b", 1), tup("a", 5, "b", 1), tup("a", 6, "b", 1)}
	nj := &NLNestJoin{
		Ctx: NewCtx(nil), L: &SliceScan{Rows: xs}, R: &SliceScan{Rows: ys},
		LVar: "x", RVar: "y", Pred: pred("x.d = y.b"), Fn: pred("y.a"), Label: "s",
	}
	got := collect(t, nj)
	if !value.Equal(got.Elems()[0].MustGet("s"), ints(5, 6)) {
		t.Errorf("group should deduplicate: %s", got)
	}
}

func TestUnnestErrors(t *testing.T) {
	// Attribute missing.
	u := &UnnestIter{In: &SliceScan{Rows: []value.Value{tup("k", 1)}}, Attr: "zs"}
	if _, err := Collect(u); err == nil {
		t.Error("missing attribute should error")
	}
	// Attribute not a set.
	u2 := &UnnestIter{In: &SliceScan{Rows: []value.Value{tup("zs", 1)}}, Attr: "zs"}
	if _, err := Collect(u2); err == nil {
		t.Error("non-set attribute should error")
	}
	// Non-tuple element without Scalar.
	u3 := &UnnestIter{In: &SliceScan{Rows: []value.Value{tup("zs", ints(1, 2))}}, Attr: "zs"}
	if _, err := Collect(u3); err == nil {
		t.Error("scalar elements need Scalar=true")
	}
}

func TestNestOverNonTuple(t *testing.T) {
	n := &NestIter{In: &SliceScan{Rows: []value.Value{value.Int(1)}}, Attrs: []string{"a"}, Label: "s"}
	if _, err := Collect(n); err == nil {
		t.Error("nest over scalars should error")
	}
}

func TestOuterJoinWithoutRElem(t *testing.T) {
	nl := &NLJoin{Ctx: NewCtx(nil), Kind: algebra.JoinLeftOuter, L: &SliceScan{}, R: &SliceScan{},
		LVar: "x", RVar: "y", Pred: pred("TRUE")}
	if err := nl.Open(); err == nil {
		t.Error("outer NLJoin without RElem should fail to open")
	}
	for _, degree := range []int{1, 4} {
		hj := &HashJoin{Ctx: NewCtx(nil), Kind: algebra.JoinLeftOuter, L: &BatchSliceScan{}, R: &BatchSliceScan{},
			LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.k")}, Degree: degree}
		if err := hj.Open(); err == nil {
			t.Errorf("p=%d: outer HashJoin without RElem should fail to open", degree)
		}
	}
}

func TestSemiJoinEarlyOutProbesLess(t *testing.T) {
	// Semijoin should touch fewer right candidates than the nest join when
	// matches are plentiful: verify via the evaluator step counter, which
	// the generic residual feeds.
	var xs, ys []value.Value
	for i := 0; i < 50; i++ {
		xs = append(xs, tup("e", i, "d", 1))
	}
	for i := 0; i < 200; i++ {
		ys = append(ys, tup("a", i, "b", 1))
	}
	ctxSemi := NewCtx(nil)
	semi := &HashJoin{Ctx: ctxSemi, Kind: algebra.JoinSemi,
		L: &BatchSliceScan{Rows: xs}, R: &BatchSliceScan{Rows: ys}, LVar: "x", RVar: "y",
		LKeys: []tmql.Expr{pred("x.d")}, RKeys: []tmql.Expr{pred("y.b")},
		Residual: pred("y.a + 0 >= 0")}
	if _, err := CollectBatches(semi); err != nil {
		t.Fatal(err)
	}
	ctxNest := NewCtx(nil)
	nest := &HashNestJoin{Ctx: ctxNest,
		L: &BatchSliceScan{Rows: xs}, R: &BatchSliceScan{Rows: ys}, LVar: "x", RVar: "y",
		LKeys: []tmql.Expr{pred("x.d")}, RKeys: []tmql.Expr{pred("y.b")},
		Residual: pred("y.a + 0 >= 0"), Fn: pred("y.a"), Label: "s"}
	if _, err := CollectBatches(nest); err != nil {
		t.Fatal(err)
	}
	if ctxSemi.Ev.Steps >= ctxNest.Ev.Steps {
		t.Errorf("semijoin early-out should do less work: semi=%d nest=%d",
			ctxSemi.Ev.Steps, ctxNest.Ev.Steps)
	}
}
