package planner

import (
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/exec"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

func TestExtractEquiKeys(t *testing.T) {
	cases := []struct {
		pred     string
		nKeys    int
		residual string // "" for none
	}{
		{"x.b = y.d", 1, ""},
		{"y.d = x.b", 1, ""}, // orientation normalized
		{"x.b = y.d AND x.a = y.c", 2, ""},
		{"x.b = y.d AND y.a > 1", 1, "y.a > 1"},
		{"x.b < y.d", 0, "x.b < y.d"},
		{"x.b = x.b", 0, "x.b = x.b"}, // both sides left: residual
		{"x.b + 1 = y.d * 2", 1, ""},  // expressions allowed as keys
		{"TRUE", 0, "true"},
		{"x.b = y.d AND TRUE AND x.b = 1", 1, "true AND x.b = 1"},
	}
	for _, c := range cases {
		lk, rk, res := ExtractEquiKeys(tmql.MustParse(c.pred), "x", "y")
		if len(lk) != c.nKeys || len(rk) != c.nKeys {
			t.Errorf("ExtractEquiKeys(%q): %d/%d keys, want %d", c.pred, len(lk), len(rk), c.nKeys)
		}
		got := ""
		if res != nil {
			got = tmql.Format(res)
		}
		if got != c.residual {
			t.Errorf("ExtractEquiKeys(%q) residual = %q, want %q", c.pred, got, c.residual)
		}
	}
}

func TestSplitJoinConjuncts(t *testing.T) {
	parts := SplitConjuncts(tmql.MustParse("a = 1 AND b = 2 AND c = 3"))
	if len(parts) != 3 {
		t.Errorf("SplitConjuncts: %d parts", len(parts))
	}
	if SplitConjuncts(nil) != nil {
		t.Error("SplitConjuncts(nil) should be nil")
	}
	if JoinConjuncts(nil) != nil {
		t.Error("JoinConjuncts(nil) should be nil")
	}
	back := JoinConjuncts(parts)
	if got := tmql.Format(back); got != "a = 1 AND b = 2 AND c = 3" {
		t.Errorf("JoinConjuncts = %q", got)
	}
}

// compile builds a small nest-join plan and compiles it under the impl.
func compileNJ(t *testing.T, impl JoinImpl, pred string) Tree {
	t.Helper()
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	b := algebra.NewBuilder(cat)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	nj, err := b.NestJoin(x, y, "x", "y", tmql.MustParse(pred), tmql.MustParse("y.a"), "zs")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(exec.NewCtx(db), PhysicalSpec{Joins: impl}).Compile(nj)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestNestJoinImplEquivalence(t *testing.T) {
	var want value.Value
	for i, impl := range []JoinImpl{ImplNestedLoop, ImplHash, ImplMerge, ImplAuto} {
		got, err := compileNJ(t, impl, "x.b = y.b").Collect(nil)
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !value.Equal(got, want) {
			t.Errorf("%s nest join differs from nested-loop", impl)
		}
	}
}

func TestPhysicalChoice(t *testing.T) {
	// Equi predicate + auto → hash; non-equi + auto → nested loop.
	it := compileNJ(t, ImplAuto, "x.b = y.b").Rows
	if a, ok := it.(*exec.BatchToRows); !ok {
		t.Errorf("auto with equi-key compiled to %T, want HashNestJoin behind BatchToRows", it)
	} else if _, ok := a.In.(*exec.HashNestJoin); !ok {
		t.Errorf("auto with equi-key compiled to %T, want HashNestJoin", a.In)
	}
	it = compileNJ(t, ImplAuto, "x.b < y.b").Rows
	if _, ok := it.(*exec.NLNestJoin); !ok {
		t.Errorf("auto without equi-key compiled to %T, want NLNestJoin", it)
	}
	it = compileNJ(t, ImplMerge, "x.b = y.b").Rows
	if _, ok := it.(*exec.MergeNestJoin); !ok {
		t.Errorf("merge compiled to %T", it)
	}
}

func TestHashRequestedWithoutKeysFails(t *testing.T) {
	cat, _ := datagen.XYZ(datagen.DefaultSpec())
	b := algebra.NewBuilder(cat)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	nj, _ := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b < y.b"), nil, "zs")
	ctx := exec.NewCtx(nil)
	if _, err := New(ctx, PhysicalSpec{Joins: ImplHash}).Compile(nj); err == nil {
		t.Error("hash without keys should fail")
	}
	j, _ := b.Join(algebra.JoinSemi, x, y, "x", "y", tmql.MustParse("x.b < y.b"))
	if _, err := New(ctx, PhysicalSpec{Joins: ImplHash}).Compile(j); err == nil {
		t.Error("hash join without keys should fail")
	}
}

func TestCompileFullPipeline(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	b := algebra.NewBuilder(cat)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	nj, _ := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b = y.b"), tmql.MustParse("y.a"), "zs")
	sel, _ := b.Select(nj, "x", tmql.MustParse("x.a SUBSETEQ x.zs"))
	proj, _ := b.Project(sel, "x", "a", "b")
	ctx := exec.NewCtx(db)
	tree, err := New(ctx, PhysicalSpec{}).Compile(proj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.Collect(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: direct nested loops.
	xTab, _ := db.Table("X")
	yTab, _ := db.Table("Y")
	want := value.NewSetBuilder(0)
	for _, xr := range xTab.Rows() {
		zs := value.NewSetBuilder(0)
		for _, yr := range yTab.Rows() {
			if value.Equal(xr.MustGet("b"), yr.MustGet("b")) {
				zs.Add(yr.MustGet("a"))
			}
		}
		if value.SubsetEq(xr.MustGet("a"), zs.Build()) {
			want.Add(xr)
		}
	}
	wantV := want.Build()
	if !value.Equal(got, wantV) {
		t.Errorf("pipeline: got %s\nwant %s", got, wantV)
	}
}

func TestSetOpAndUnnestCompile(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	b := algebra.NewBuilder(cat)
	x1, _ := b.Scan("X")
	x2, _ := b.Scan("X")
	u, _ := b.SetOp(algebra.SetIntersect, x1, x2)
	ctx := exec.NewCtx(db)
	tree, err := New(ctx, PhysicalSpec{}).Compile(u)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tree.Collect(nil)
	xTab, _ := db.Table("X")
	if got.Len() != xTab.Len() {
		t.Errorf("X ∩ X has %d elements, want %d", got.Len(), xTab.Len())
	}

	un, _ := b.Unnest(x1, "a")
	tree2, err := New(ctx, PhysicalSpec{}).Compile(un)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree2.Collect(nil); err != nil {
		t.Fatal(err)
	}
}

func TestJoinImplString(t *testing.T) {
	for ji, want := range map[JoinImpl]string{
		ImplAuto: "auto", ImplNestedLoop: "nested-loop", ImplHash: "hash", ImplMerge: "sort-merge",
	} {
		if ji.String() != want {
			t.Errorf("%d.String() = %s", ji, ji.String())
		}
	}
}
