package planner

import (
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/exec"
	"tmdb/internal/stats"
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

// TestExtractEquiKeysDropsRepeatedPairs pins that a key pair repeated in
// either orientation is extracted once and is not re-checked as residual: an
// IN subquery's semijoin carries x.b = y.d twice, once from its WHERE and
// once from the membership test.
func TestExtractEquiKeysDropsRepeatedPairs(t *testing.T) {
	cases := []struct {
		pred, keys, residual string
	}{
		{"x.b = y.d AND y.d = x.b", "x.b=y.d", ""},
		{"x.b = y.d AND x.b = y.d", "x.b=y.d", ""},
		{"y.d = x.b AND y.a > 1 AND x.b = y.d", "x.b=y.d", "y.a > 1"},
		{"x.b = y.d AND x.a = y.d AND y.d = x.a", "x.b=y.d x.a=y.d", ""},
		{"x.b = y.d AND x.b + 0 = y.d", "x.b=y.d x.b + 0=y.d", ""},
	}
	for _, c := range cases {
		lk, rk, res := ExtractEquiKeys(tmql.MustParse(c.pred), "x", "y")
		var keys []string
		for i := range lk {
			keys = append(keys, tmql.Format(lk[i])+"="+tmql.Format(rk[i]))
		}
		if got := strings.Join(keys, " "); got != c.keys {
			t.Errorf("ExtractEquiKeys(%q) keys = %q, want %q", c.pred, got, c.keys)
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
	parts := tmql.SplitAnd(tmql.MustParse("a = 1 AND b = 2 AND c = 3"))
	if len(parts) != 3 {
		t.Errorf("SplitAnd: %d parts", len(parts))
	}
	if tmql.SplitAnd(nil) != nil {
		t.Error("SplitAnd(nil) should be nil")
	}
	if tmql.JoinAnd(nil) != nil {
		t.Error("JoinAnd(nil) should be nil")
	}
	back := tmql.JoinAnd(parts)
	if got := tmql.Format(back); got != "a = 1 AND b = 2 AND c = 3" {
		t.Errorf("JoinAnd = %q", got)
	}
}

// compile builds a small nest-join plan and compiles it under the impl.
func compileNJ(t *testing.T, impl JoinImpl, pred string) exec.BatchIterator {
	t.Helper()
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	b := algebra.NewBuilder(cat)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	nj, err := b.NestJoin(x, y, "x", "y", tmql.MustParse(pred), tmql.MustParse("y.a"), "zs")
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := compilePlan(exec.NewCtx(db), PhysicalSpec{Joins: impl}, nj)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestNestJoinImplEquivalence(t *testing.T) {
	var want value.Value
	for i, impl := range []JoinImpl{ImplNestedLoop, ImplHash, ImplMerge, ImplAuto} {
		got, err := exec.CollectBatches(compileNJ(t, impl, "x.b = y.b"))
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
	for _, tc := range []struct {
		pred string
		want exec.JoinMethod
	}{{"x.b = y.b", exec.JoinHash}, {"x.b < y.b", exec.JoinNL}} {
		it := compileNJ(t, ImplAuto, tc.pred)
		if j, ok := it.(*exec.Join); !ok || j.Method != tc.want || j.Fn == nil {
			t.Errorf("auto on %s compiled to %T, want a nest Join of method %d", tc.pred, it, tc.want)
		}
	}
	if j, ok := compileNJ(t, ImplMerge, "x.b = y.b").(*exec.Join); !ok || j.Method != exec.JoinMerge || j.Fn == nil {
		t.Errorf("merge compiled to %+v, want a nest Join of method %d", j, exec.JoinMerge)
	}
}

func TestHashRequestedWithoutKeysFails(t *testing.T) {
	cat, _ := datagen.XYZ(datagen.DefaultSpec())
	b := algebra.NewBuilder(cat)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	nj, _ := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b < y.b"), nil, "zs")
	ctx := exec.NewCtx(nil)
	if _, _, err := compilePlan(ctx, PhysicalSpec{Joins: ImplHash}, nj); err == nil {
		t.Error("hash without keys should fail")
	}
	j, _ := b.Join(algebra.JoinSemi, x, y, "x", "y", tmql.MustParse("x.b < y.b"))
	if _, _, err := compilePlan(ctx, PhysicalSpec{Joins: ImplHash}, j); err == nil {
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
	tree, _, err := compilePlan(ctx, PhysicalSpec{}, proj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.CollectBatches(tree)
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
	tree, _, err := compilePlan(ctx, PhysicalSpec{}, u)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := exec.CollectBatches(tree)
	xTab, _ := db.Table("X")
	if got.Len() != xTab.Len() {
		t.Errorf("X ∩ X has %d elements, want %d", got.Len(), xTab.Len())
	}

	un, _ := b.Unnest(x1, "a")
	tree2, _, err := compilePlan(ctx, PhysicalSpec{}, un)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.CollectBatches(tree2); err != nil {
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

// compilePlan resolves p under spec against the live indexes of ctx's
// database and compiles the tree.
func compilePlan(ctx *exec.Ctx, spec PhysicalSpec, p algebra.Plan) (exec.BatchIterator, exec.Rows, error) {
	return Compile(ctx, NewEstimatorStats(stats.New(ctx.DB)).Resolve(p, spec))
}

// implInfeasible is why the join family impl cannot run p ("" when it can).
func implInfeasible(p algebra.Plan, impl JoinImpl) string {
	return resolveTree(p, PhysicalSpec{Joins: impl}, noIndexes).Infeasible
}
