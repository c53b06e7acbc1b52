package exec

import (
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

func tup(pairs ...any) value.Value {
	var fs []value.Field
	for i := 0; i < len(pairs); i += 2 {
		label := pairs[i].(string)
		var v value.Value
		switch x := pairs[i+1].(type) {
		case int:
			v = value.Int(int64(x))
		case string:
			v = value.Str(x)
		case value.Value:
			v = x
		default:
			panic("bad tup arg")
		}
		fs = append(fs, value.F(label, v))
	}
	return value.TupleOf(fs...)
}

func ints(ns ...int64) value.Value {
	es := make([]value.Value, len(ns))
	for i, n := range ns {
		es[i] = value.Int(n)
	}
	return value.SetOf(es...)
}

// xyRows returns the Table 1 relations as slices.
func xyRows() (x, y []value.Value) {
	x = []value.Value{
		tup("e", 1, "d", 1),
		tup("e", 2, "d", 2),
		tup("e", 3, "d", 3),
	}
	y = []value.Value{
		tup("a", 1, "b", 1),
		tup("a", 2, "b", 1),
		tup("a", 3, "b", 3),
	}
	return
}

func pred(src string) tmql.Expr { return tmql.MustParse(src) }

func collect(t *testing.T, it BatchIterator) value.Value {
	t.Helper()
	v, err := CollectBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// table1Want is the expected nest equijoin of Table 1.
func table1Want() value.Value {
	return value.SetOf(
		tup("e", 1, "d", 1, "s", value.SetOf(tup("a", 1, "b", 1), tup("a", 2, "b", 1))),
		tup("e", 2, "d", 2, "s", value.EmptySet),
		tup("e", 3, "d", 3, "s", value.SetOf(tup("a", 3, "b", 3))),
	)
}

func nestJoinIters(ctx *Ctx, x, y []value.Value) map[string]BatchIterator {
	keysL := []tmql.Expr{pred("x.d")}
	keysR := []tmql.Expr{pred("y.b")}
	return map[string]BatchIterator{
		"nl": &Join{
			Ctx: ctx, Method: JoinNL, L: &SliceScan{Rows: x}, R: &SliceScan{Rows: y},
			LVar: "x", RVar: "y", Residual: pred("x.d = y.b"), Fn: pred("y"), Label: "s",
		},
		"hash": &Join{
			Ctx: ctx, Method: JoinHash, L: &SliceScan{Rows: x}, R: &SliceScan{Rows: y},
			LVar: "x", RVar: "y", LKeys: keysL, RKeys: keysR, Fn: pred("y"), Label: "s",
		},
		"merge": &Join{
			Ctx: ctx, Method: JoinMerge, L: &SliceScan{Rows: x}, R: &SliceScan{Rows: y},
			LVar: "x", RVar: "y", LKeys: keysL, RKeys: keysR, Fn: pred("y"), Label: "s",
		},
	}
}

// TestTable1 reproduces the paper's Table 1 (the nest equijoin example) with
// every nest-join implementation.
func TestTable1(t *testing.T) {
	x, y := xyRows()
	want := table1Want()
	for name, it := range nestJoinIters(NewCtx(nil), x, y) {
		got := collect(t, it)
		if !value.Equal(got, want) {
			t.Errorf("%s nest join:\n got %s\nwant %s", name, got, want)
		}
	}
}

func TestNestJoinFunctionProjection(t *testing.T) {
	// Fn projects y.a — the §8 step (1) shape.
	x, y := xyRows()
	it := &Join{
		Ctx: NewCtx(nil), Method: JoinHash, L: &SliceScan{Rows: x}, R: &SliceScan{Rows: y},
		LVar: "x", RVar: "y",
		LKeys: []tmql.Expr{pred("x.d")}, RKeys: []tmql.Expr{pred("y.b")},
		Fn: pred("y.a"), Label: "zs",
	}
	got := collect(t, it)
	want := value.SetOf(
		tup("e", 1, "d", 1, "zs", ints(1, 2)),
		tup("e", 2, "d", 2, "zs", value.EmptySet),
		tup("e", 3, "d", 3, "zs", ints(3)),
	)
	if !value.Equal(got, want) {
		t.Errorf("got %s\nwant %s", got, want)
	}
}

func TestNestJoinResidualPredicate(t *testing.T) {
	// Equi-key plus residual: x.d = y.b AND y.a > 1.
	x, y := xyRows()
	for _, impl := range []BatchIterator{
		&Join{
			Ctx: NewCtx(nil), Method: JoinHash, L: &SliceScan{Rows: x}, R: &SliceScan{Rows: y},
			LVar: "x", RVar: "y",
			LKeys: []tmql.Expr{pred("x.d")}, RKeys: []tmql.Expr{pred("y.b")},
			Residual: pred("y.a > 1"), Fn: pred("y.a"), Label: "zs",
		},
		&Join{
			Ctx: NewCtx(nil), Method: JoinMerge, L: &SliceScan{Rows: x}, R: &SliceScan{Rows: y},
			LVar: "x", RVar: "y",
			LKeys: []tmql.Expr{pred("x.d")}, RKeys: []tmql.Expr{pred("y.b")},
			Residual: pred("y.a > 1"), Fn: pred("y.a"), Label: "zs",
		},
		&Join{
			Ctx: NewCtx(nil), Method: JoinNL, L: &SliceScan{Rows: x}, R: &SliceScan{Rows: y},
			LVar: "x", RVar: "y", Residual: pred("x.d = y.b AND y.a > 1"),
			Fn: pred("y.a"), Label: "zs",
		},
	} {
		got := collect(t, impl)
		want := value.SetOf(
			tup("e", 1, "d", 1, "zs", ints(2)),
			tup("e", 2, "d", 2, "zs", value.EmptySet),
			tup("e", 3, "d", 3, "zs", ints(3)),
		)
		if !value.Equal(got, want) {
			t.Errorf("%T: got %s\nwant %s", impl, got, want)
		}
	}
}

func TestFlatJoins(t *testing.T) {
	x, y := xyRows()
	wantInner := value.SetOf(
		tup("e", 1, "d", 1, "a", 1, "b", 1),
		tup("e", 1, "d", 1, "a", 2, "b", 1),
		tup("e", 3, "d", 3, "a", 3, "b", 3),
	)
	wantSemi := value.SetOf(tup("e", 1, "d", 1), tup("e", 3, "d", 3))
	wantAnti := value.SetOf(tup("e", 2, "d", 2))
	wantOuter := value.SetOf(
		tup("e", 1, "d", 1, "a", 1, "b", 1),
		tup("e", 1, "d", 1, "a", 2, "b", 1),
		tup("e", 2, "d", 2, "a", value.Null, "b", value.Null),
		tup("e", 3, "d", 3, "a", 3, "b", 3),
	)
	cases := []struct {
		kind algebra.JoinKind
		want value.Value
	}{
		{algebra.JoinInner, wantInner},
		{algebra.JoinSemi, wantSemi},
		{algebra.JoinAnti, wantAnti},
		{algebra.JoinLeftOuter, wantOuter},
	}
	yElem := yElemType()
	for _, c := range cases {
		nl := &Join{
			Ctx: NewCtx(nil), Method: JoinNL, Kind: c.kind, L: &SliceScan{Rows: x}, R: &SliceScan{Rows: y},
			LVar: "x", RVar: "y", Residual: pred("x.d = y.b"), RElem: yElem,
		}
		if got := collect(t, nl); !value.Equal(got, c.want) {
			t.Errorf("nested-loop %s:\n got %s\nwant %s", c.kind, got, c.want)
		}
		hj := &Join{
			Ctx: NewCtx(nil), Method: JoinHash, Kind: c.kind, L: &SliceScan{Rows: x}, R: &SliceScan{Rows: y},
			LVar: "x", RVar: "y",
			LKeys: []tmql.Expr{pred("x.d")}, RKeys: []tmql.Expr{pred("y.b")},
			RElem: yElem,
		}
		if got := collect(t, hj); !value.Equal(got, c.want) {
			t.Errorf("hash %s:\n got %s\nwant %s", c.kind, got, c.want)
		}
	}
}

func yElemType() *types.Type {
	return types.Tuple(types.F("a", types.Int), types.F("b", types.Int))
}

func wrapType() *types.Type {
	return types.Tuple(types.F("w", yElemType()))
}

func TestFilterMapDistinct(t *testing.T) {
	x, _ := xyRows()
	ctx := NewCtx(nil)
	f := &Filter{Ctx: ctx, In: &SliceScan{Rows: x}, Var: "x", Pred: pred("x.e > 1")}
	if got := collect(t, f); got.Len() != 2 {
		t.Errorf("Filter: %s", got)
	}
	m := &Map{Ctx: ctx, In: &SliceScan{Rows: x}, Var: "x", Out: pred("x.e + 10")}
	if got := collect(t, m); !value.Equal(got, ints(11, 12, 13)) {
		t.Errorf("Map: %s", got)
	}
	dup := []value.Value{value.Int(1), value.Int(1), value.Int(2)}
	d := &Map{Ctx: ctx, In: &SliceScan{Rows: dup, Size: 1}, Var: "v", Out: pred("v"), Distinct: true}
	rows, err := drainRows(d)
	if err != nil || len(rows) != 2 {
		t.Errorf("Distinct: %v %v", rows, err)
	}
}

func TestNestAndNestStar(t *testing.T) {
	rows := []value.Value{
		tup("g", 1, "a", 10),
		tup("g", 1, "a", 20),
		tup("g", 2, "a", 30),
	}
	n := &NestIter{Ctx: NewCtx(nil), In: &SliceScan{Rows: rows}, Attrs: []string{"a"}, Label: "as"}
	got := collect(t, n)
	want := value.SetOf(
		tup("g", 1, "as", value.SetOf(tup("a", 10), tup("a", 20))),
		tup("g", 2, "as", value.SetOf(tup("a", 30))),
	)
	if !value.Equal(got, want) {
		t.Errorf("Nest: got %s want %s", got, want)
	}

	// ν*: NULL rows nest to ∅; plain ν would keep the NULL tuple.
	rowsNull := []value.Value{
		tup("g", 1, "a", value.Null),
		tup("g", 2, "a", 30),
	}
	ns := &NestIter{Ctx: NewCtx(nil), In: &SliceScan{Rows: rowsNull}, Attrs: []string{"a"}, Label: "as", NullAware: true}
	got = collect(t, ns)
	want = value.SetOf(
		tup("g", 1, "as", value.EmptySet),
		tup("g", 2, "as", value.SetOf(tup("a", 30))),
	)
	if !value.Equal(got, want) {
		t.Errorf("Nest*: got %s want %s", got, want)
	}
	nv := &NestIter{Ctx: NewCtx(nil), In: &SliceScan{Rows: rowsNull}, Attrs: []string{"a"}, Label: "as"}
	got = collect(t, nv)
	if value.Equal(got, want) {
		t.Error("plain ν should keep the NULL tuple, differing from ν*")
	}
}

func TestUnnestIter(t *testing.T) {
	rows := []value.Value{
		tup("g", 1, "as", value.SetOf(tup("a", 10), tup("a", 20))),
		tup("g", 2, "as", value.EmptySet), // dangling: vanishes under μ
	}
	u := &UnnestIter{Ctx: NewCtx(nil), In: &SliceScan{Rows: rows}, Attr: "as"}
	got := collect(t, u)
	want := value.SetOf(tup("g", 1, "a", 10), tup("g", 1, "a", 20))
	if !value.Equal(got, want) {
		t.Errorf("Unnest: got %s want %s", got, want)
	}

	// Scalar elements keep the attribute label.
	rows2 := []value.Value{tup("g", 1, "vs", ints(7, 8))}
	u2 := &UnnestIter{Ctx: NewCtx(nil), In: &SliceScan{Rows: rows2}, Attr: "vs", Scalar: true}
	got = collect(t, u2)
	want = value.SetOf(tup("g", 1, "vs", 7), tup("g", 1, "vs", 8))
	if !value.Equal(got, want) {
		t.Errorf("Unnest scalar: got %s want %s", got, want)
	}
}

// TestNestJoinEqualsOuterJoinNestStar verifies the §6 identity
// X △ Y = ν*[s](X ⟗ Y) on Table 1 (with the right side wrapped so padding
// detection is exact).
func TestNestJoinEqualsOuterJoinNestStar(t *testing.T) {
	x, y := xyRows()
	ctx := NewCtx(nil)

	// Left: nest join (identity function, wrapped right rows to mirror).
	nj := &Join{
		Ctx: ctx, Method: JoinNL, L: &SliceScan{Rows: x}, R: &SliceScan{Rows: y},
		LVar: "x", RVar: "y", Residual: pred("x.d = y.b"), Fn: pred("y"), Label: "s",
	}
	njOut := collect(t, nj)

	// Right: outerjoin then ν*. Wrap y rows as (w = y) to avoid label
	// collisions and make the NULL-padding pattern exact.
	wrapped := make([]value.Value, len(y))
	for i, r := range y {
		wrapped[i] = tup("w", r)
	}
	oj := &Join{
		Ctx: ctx, Method: JoinNL, Kind: algebra.JoinLeftOuter,
		L: &SliceScan{Rows: x}, R: &SliceScan{Rows: wrapped},
		LVar: "x", RVar: "y", Residual: pred("x.d = y.w.b"), RElem: wrapType(),
	}
	ns := &NestIter{Ctx: ctx, In: oj, Attrs: []string{"w"}, Label: "s", NullAware: true}
	nsRows, err := drainRows(ns)
	if err != nil {
		t.Fatal(err)
	}
	// Unwrap: s is a set of (w = y-row); map to the set of y-rows.
	b := value.NewSetBuilder(len(nsRows))
	for _, r := range nsRows {
		g := value.NewSetBuilder(0)
		for _, e := range r.MustGet("s").Elems() {
			g.Add(e.MustGet("w"))
		}
		b.Add(r.Drop("s").Extend("s", g.Build()))
	}
	ojOut := b.Build()

	if !value.Equal(njOut, ojOut) {
		t.Errorf("△ vs ν*∘⟗:\n got %s\nwant %s", ojOut, njOut)
	}
}

func TestSetOpIter(t *testing.T) {
	a := []value.Value{value.Int(1), value.Int(2), value.Int(3)}
	b := []value.Value{value.Int(2), value.Int(4)}
	cases := []struct {
		kind int
		want value.Value
	}{
		{0, ints(1, 2, 3, 4)},
		{1, ints(2)},
		{2, ints(1, 3)},
	}
	for _, c := range cases {
		it := &SetOpIter{Ctx: NewCtx(nil), Kind: c.kind, L: &SliceScan{Rows: a, Size: 1}, R: &SliceScan{Rows: b}}
		if got := collect(t, it); !value.Equal(got, c.want) {
			t.Errorf("SetOp %d: got %s want %s", c.kind, got, c.want)
		}
	}
}

func TestEvalScan(t *testing.T) {
	ctx := NewCtx(nil)
	es := &EvalScan{Ctx: ctx, Expr: pred("{1, 2} UNION {3}")}
	if got := collect(t, es); !value.Equal(got, ints(1, 2, 3)) {
		t.Errorf("EvalScan: %s", got)
	}
	bad := &EvalScan{Ctx: ctx, Expr: pred("1 + 1")}
	if err := bad.Open(); err == nil {
		t.Error("EvalScan over scalar should fail")
	}
}

func TestTableScanUnknown(t *testing.T) {
	_, db := datagen.Table1()
	ctx := NewCtx(db)
	ts := &TableScan{Ctx: ctx, Table: "NOPE"}
	if err := ts.Open(); err == nil {
		t.Error("unknown table should fail")
	}
	ok := &TableScan{Ctx: ctx, Table: "X"}
	if got := collect(t, ok); got.Len() != 3 {
		t.Errorf("X scan: %s", got)
	}
}

func TestHashJoinKeyValidation(t *testing.T) {
	hj := &Join{Ctx: NewCtx(nil), Method: JoinHash, L: &SliceScan{}, R: &SliceScan{}, LVar: "x", RVar: "y"}
	if err := hj.Open(); err == nil {
		t.Error("hash join without keys should fail to open")
	}
	hnj := &Join{Ctx: NewCtx(nil), Method: JoinHash, L: &SliceScan{}, R: &SliceScan{}, LVar: "x", RVar: "y",
		Fn: pred("y"), Label: "s"}
	if err := hnj.Open(); err == nil {
		t.Error("hash nest join without keys should fail to open")
	}
	inj := &Join{Ctx: NewCtx(nil), Method: JoinIndex, L: &SliceScan{}, LVar: "x", RVar: "y", Table: "T", Index: "a"}
	if err := inj.Open(); err == nil {
		t.Error("index join without keys should fail to open")
	}
	mnj := &Join{Ctx: NewCtx(nil), Method: JoinMerge, L: &SliceScan{}, R: &SliceScan{}, LVar: "x", RVar: "y",
		Fn: pred("y"), Label: "s"}
	if err := mnj.Open(); err == nil {
		t.Error("sort-merge nest join without keys should fail to open")
	}
}
