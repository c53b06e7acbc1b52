package exec

import (
	"errors"
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// failingIter errors on Open or after n single-row batches, for
// error-propagation tests.
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

func (f *failingIter) NextBatch() ([]value.Value, bool, error) {
	if f.i >= f.n {
		return nil, false, errors.New("boom-next")
	}
	f.i++
	return []value.Value{value.TupleOf(value.F("k", value.Int(int64(f.i))))}, true, nil
}

func (f *failingIter) Close() error { return nil }

func TestErrorPropagation(t *testing.T) {
	ctx := NewCtx(nil)
	iters := []BatchIterator{
		&Filter{Ctx: ctx, In: &failingIter{failOpen: true}, Var: "x", Pred: pred("TRUE")},
		&Map{Ctx: ctx, In: &failingIter{n: 1}, Var: "x", Out: pred("x.k")},
		&Map{Ctx: ctx, In: &failingIter{n: 1}, Var: "x", Out: pred("x")},
		&Join{Ctx: ctx, Method: JoinMerge, L: &failingIter{n: 2}, R: &SliceScan{}, LVar: "x", RVar: "y",
			LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.k")}, Fn: pred("y"), Label: "s"},
		&Map{Ctx: ctx, In: &failingIter{n: 1}, Var: "x", Out: pred("x"), Distinct: true},
		&Join{Ctx: ctx, Method: JoinNL, Kind: algebra.JoinInner, L: &SliceScan{}, R: &failingIter{failOpen: true},
			LVar: "x", RVar: "y", Residual: pred("TRUE")},
		&NestIter{Ctx: ctx, In: &failingIter{n: 2}, Attrs: []string{"k"}, Label: "s"},
		&UnnestIter{Ctx: ctx, In: &failingIter{n: 1}, Attr: "k"},
		&SetOpIter{Ctx: ctx, Kind: 0, L: &SliceScan{}, R: &failingIter{n: 1}},
		&Join{
			Ctx: ctx, Method: JoinHash, L: &SliceScan{}, R: &failingIter{n: 1},
			LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.k")},
			Fn: pred("y"), Label: "s",
		},
		&Join{
			Ctx: ctx, Method: JoinHash, Kind: algebra.JoinInner, L: &failingIter{n: 1}, R: &SliceScan{},
			LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.k")},
		},
	}
	for _, it := range iters {
		if _, err := CollectBatches(it); err == nil {
			t.Errorf("%T should surface input errors", it)
		}
	}
}

func TestPredicateTypeErrors(t *testing.T) {
	ctx := NewCtx(nil)
	rows := []value.Value{tup("k", 1)}
	// Predicate yields a non-boolean.
	f := &Filter{Ctx: ctx, In: &SliceScan{Rows: rows}, Var: "x", Pred: pred("x.k + 1")}
	if _, err := CollectBatches(f); err == nil || !strings.Contains(err.Error(), "not BOOL") {
		t.Errorf("non-boolean predicate: %v", err)
	}
	// Predicate references missing field.
	f2 := &Filter{Ctx: ctx, In: &SliceScan{Rows: rows}, Var: "x", Pred: pred("x.nosuch = 1")}
	if _, err := CollectBatches(f2); err == nil {
		t.Error("missing field should error at evaluation")
	}
}

func TestJoinsOnEmptyInputs(t *testing.T) {
	ctx := NewCtx(nil)
	rows := []value.Value{tup("e", 1, "d", 1)}
	yElem := yElemType()

	// Empty right side.
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinSemi, algebra.JoinAnti, algebra.JoinLeftOuter} {
		nl := &Join{Ctx: ctx, Method: JoinNL, Kind: kind, L: &SliceScan{Rows: rows}, R: &SliceScan{},
			LVar: "x", RVar: "y", Residual: pred("x.d = y.b"), RElem: yElem}
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
	hj := &Join{Ctx: ctx, Method: JoinHash, Kind: algebra.JoinInner, L: &SliceScan{}, R: &SliceScan{Rows: rows},
		LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.d")}, RKeys: []tmql.Expr{pred("y.e")}}
	if got := collect(t, hj); got.Len() != 0 {
		t.Errorf("hash join on empty left: %s", got)
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
	mj := &Join{
		Ctx: NewCtx(nil), Method: JoinMerge, L: &SliceScan{Rows: xs}, R: &SliceScan{Rows: ys},
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
	nj := &Join{
		Ctx: NewCtx(nil), Method: JoinNL, L: &SliceScan{Rows: xs}, R: &SliceScan{Rows: ys},
		LVar: "x", RVar: "y", Residual: pred("x.d = y.b"), Fn: pred("y.a"), Label: "s",
	}
	got := collect(t, nj)
	if !value.Equal(got.Elems()[0].MustGet("s"), ints(5, 6)) {
		t.Errorf("group should deduplicate: %s", got)
	}
}

func TestUnnestErrors(t *testing.T) {
	// Attribute missing.
	ctx := NewCtx(nil)
	u := &UnnestIter{Ctx: ctx, In: &SliceScan{Rows: []value.Value{tup("k", 1)}}, Attr: "zs"}
	if _, err := CollectBatches(u); err == nil {
		t.Error("missing attribute should error")
	}
	// Attribute not a set.
	u2 := &UnnestIter{Ctx: ctx, In: &SliceScan{Rows: []value.Value{tup("zs", 1)}}, Attr: "zs"}
	if _, err := CollectBatches(u2); err == nil {
		t.Error("non-set attribute should error")
	}
	// Non-tuple element without Scalar.
	u3 := &UnnestIter{Ctx: ctx, In: &SliceScan{Rows: []value.Value{tup("zs", ints(1, 2))}}, Attr: "zs"}
	if _, err := CollectBatches(u3); err == nil {
		t.Error("scalar elements need Scalar=true")
	}
}

func TestNestOverNonTuple(t *testing.T) {
	n := &NestIter{Ctx: NewCtx(nil), In: &SliceScan{Rows: []value.Value{value.Int(1)}}, Attrs: []string{"a"}, Label: "s"}
	if _, err := CollectBatches(n); err == nil {
		t.Error("nest over scalars should error")
	}
}

func TestOuterJoinWithoutRElem(t *testing.T) {
	for _, m := range []JoinMethod{JoinNL, JoinHash, JoinIndex} {
		j := &Join{Ctx: NewCtx(nil), Method: m, Kind: algebra.JoinLeftOuter, L: &SliceScan{}, R: &SliceScan{},
			LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.k")}}
		if err := j.Open(); err == nil || !strings.Contains(err.Error(), "RElem") {
			t.Errorf("outer join (method %d) without RElem opened: %v", m, err)
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
	semi := &Join{Ctx: ctxSemi, Method: JoinHash, Kind: algebra.JoinSemi,
		L: &SliceScan{Rows: xs}, R: &SliceScan{Rows: ys}, LVar: "x", RVar: "y",
		LKeys: []tmql.Expr{pred("x.d")}, RKeys: []tmql.Expr{pred("y.b")},
		Residual: pred("y.a + 0 >= 0")}
	if _, err := CollectBatches(semi); err != nil {
		t.Fatal(err)
	}
	ctxNest := NewCtx(nil)
	nest := &Join{Ctx: ctxNest, Method: JoinHash,
		L: &SliceScan{Rows: xs}, R: &SliceScan{Rows: ys}, LVar: "x", RVar: "y",
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
