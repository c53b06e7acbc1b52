package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/faultinject"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// memoDB is a small XYZ database: every X row but the dangling ones
// finds Y rows on x.b = y.b.
func memoDB() *storage.DB {
	_, db := datagen.XYZ(datagen.Spec{NX: 200, NY: 600, NZ: 10, Keys: 40, DanglingFrac: 0.2, SetAttrCard: 2, Seed: 37})
	return db
}

// storedJoin is X ⋈ Y on x.b = y.b over stored scans: the semijoin, or with
// fn the nest join grouping fn's images under ys, fused with test when it is
// not empty. JoinNL, on the whole predicate, is the oracle of JoinHash.
func storedJoin(ctx *Ctx, method JoinMethod, fn, test string) *Join {
	j := &Join{
		Ctx: ctx, Method: method, Kind: algebra.JoinSemi,
		L: &TableScan{Ctx: ctx, Table: "X"}, R: &TableScan{Ctx: ctx, Table: "Y"}, LVar: "x", RVar: "y",
	}
	if method == JoinHash {
		j.LKeys, j.RKeys = []tmql.Expr{pred("x.b")}, []tmql.Expr{pred("y.b")}
	} else {
		j.Residual = pred("x.b = y.b")
	}
	if fn != "" {
		j.Fn, j.Label = pred(fn), "ys"
	}
	if test != "" {
		j.Test = pred(test)
	}
	return j
}

// buildKeyOf returns the memo j's hash build belongs in on the snapshots of
// the moment, and its key there.
func buildKeyOf(t *testing.T, j *Join) (*storage.Memo, string) {
	t.Helper()
	memo, key, leaves, err := j.pinRight()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range leaves {
		s.Close()
	}
	if memo == nil {
		t.Fatal("the build has no memo")
	}
	return memo, key
}

// keptBuild returns the table kept for j's hash build on the snapshots of
// the moment, or nil.
func keptBuild(t *testing.T, j *Join) *hashTable {
	t.Helper()
	memo, key := buildKeyOf(t, j)
	if v, ok := memo.Load(key); ok {
		return v.(*hashTable)
	}
	return nil
}

// yBuild is a hash join of X with Y on y.b: whose build the tests look up.
func yBuild(db *storage.DB) *Join { return storedJoin(NewCtx(db), JoinHash, "", "") }

// TestMemoServesBuildPerSnapshot runs the semijoin and the nest joins — bare,
// fused with a test on the group alone and fused with one reading the left
// row — twice per snapshot, and across a write that changes the answer.
// Each result equals nested loops over the same snapshot; the second
// execution probes the table the first kept, and a write serves a new one.
func TestMemoServesBuildPerSnapshot(t *testing.T) {
	shapes := []struct{ name, fn, test string }{
		{"semi", "", ""},
		{"nest", "y.a", ""},
		{"groupjoin", "y.a", "COUNT(ys) >= 2"},
		{"groupjoin_left", "y.a", "x.a SUPSETEQ ys"},
		{"tuple_fn", "(a = y.a, k = 1)", ""},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			db := memoDB()
			run := func() (got, want string, kept *hashTable) {
				j := storedJoin(NewCtx(db), JoinHash, sh.fn, sh.test)
				got = collect(t, j).String()
				kept = keptBuild(t, yBuild(db))
				return got, collect(t, storedJoin(NewCtx(db), JoinNL, sh.fn, sh.test)).String(), kept
			}
			got1, want1, kept1 := run()
			got2, want2, kept2 := run()
			if got1 != want1 || got2 != want2 {
				t.Fatalf("hash join differs from nested loops:\ncold %s\nwarm %s\nwant %s", got1, got2, want1)
			}
			if kept1 == nil || kept1 != kept2 {
				t.Fatalf("the build was not kept and served on its snapshot (%p, %p)", kept1, kept2)
			}
			// Every X row with key 0 loses its matches.
			y, _ := db.Table("Y")
			var victims []value.Value
			for _, v := range y.Rows() {
				if v.MustGet("b").AsInt() == 0 {
					victims = append(victims, v)
				}
			}
			if n, err := y.DeleteRows(victims); err != nil || n < 2 {
				t.Fatalf("deleted %d rows: %v", n, err)
			}
			got3, want3, kept3 := run()
			if got3 != want3 || got3 == got1 {
				t.Fatalf("after the write: got %s\nwant %s (before: %s)", got3, want3, got1)
			}
			if kept3 == nil || kept3 == kept1 {
				t.Error("the write's snapshot was served the old build")
			}
		})
	}
}

// TestMemoSharesNestGroups pins the shared groups: a nest join whose groups
// depend on the bucket alone keeps them beside the build under the join
// function's variable-free form, so a join over another variable name finds
// them; one with a residual, or reading the left row, keeps none.
func TestMemoSharesNestGroups(t *testing.T) {
	db := memoDB()
	collect(t, storedJoin(NewCtx(db), JoinHash, "y.a", ""))
	memo, buildKey := buildKeyOf(t, yBuild(db))
	groupsKey := func(fn, v string) string {
		var b strings.Builder
		b.WriteByte('G')
		b.WriteString(buildKey)
		appendForm(&b, pred(fn), nil, v, "")
		return b.String()
	}
	key := groupsKey("w.a", "w")
	groups, ok := memo.Load(key)
	if !ok {
		t.Fatal("the nest join's groups were not kept")
	}
	// The same join over another variable name is served the same groups.
	j := storedJoin(NewCtx(db), JoinHash, "", "")
	j.RVar, j.RKeys, j.Fn, j.Label = "w", []tmql.Expr{pred("w.b")}, pred("w.a"), "ys"
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	if j.memo == nil || j.sharedGroups(compileScalar2(j.Fn, nil, j.LVar, j.RVar), true) == nil {
		t.Fatal("a join over another variable name was not served the kept build and groups")
	}
	j.Close()
	if again, _ := memo.Load(key); &again.([]value.Value)[0] != &groups.([]value.Value)[0] {
		t.Error("the groups were computed again")
	}

	db = memoDB()
	for name, j := range map[string]*Join{
		"residual": func() *Join {
			j := storedJoin(NewCtx(db), JoinHash, "y.a", "")
			j.Residual = pred("x.b >= y.d")
			return j
		}(),
		"left_fn": storedJoin(NewCtx(db), JoinHash, "(a = y.a, b = x.b)", ""),
	} {
		collect(t, j)
		memo, buildKey = buildKeyOf(t, yBuild(db))
		for _, fn := range []string{"y.a", "(a = y.a, b = x.b)"} {
			if _, ok := memo.Load(groupsKey(fn, "y")); ok {
				t.Errorf("%s: groups of a group that reads the left row were kept", name)
			}
		}
	}
}

// TestMemoFnForm pins the join function's form: it leaves the variable's
// name out and keeps literal kinds apart.
func TestMemoFnForm(t *testing.T) {
	form := func(src, v string) string {
		var b strings.Builder
		if !appendForm(&b, pred(src), nil, v, "") {
			return "<none>"
		}
		return b.String()
	}
	if form("(a = y.a, n = COUNT(y.c))", "y") != form("(a = w.a, n = COUNT(w.c))", "w") {
		t.Error("the form depends on the variable's name")
	}
	if form("(a = y.a, k = 1)", "y") == form("(a = y.a, k = 1.0)", "y") {
		t.Error("an int and a float literal share a form")
	}
	if form("y.a", "y") == form("y.b", "y") {
		t.Error("two paths share a form")
	}
}

// yFillCharge returns what the hash build over Y on y.b charges the build
// budget: the cold build's per-row charges, summed.
func yFillCharge(t *testing.T) int64 {
	gov := NewGovernor(context.Background(), Limits{MaxBuildBytes: 1 << 40})
	if _, err := CollectBatchesGoverned(gov, storedJoin(NewCtxGoverned(memoDB(), gov), JoinHash, "y.a", ""), AnyRows); err != nil {
		t.Fatal(err)
	}
	return gov.BuildBytes()
}

// TestMemoBuildBudgetColdAndWarm pins that a kept build charges what it cost:
// a build budget just below the build's charge fails the query that fills
// the memo and the one it serves, and a budget at the charge passes both.
func TestMemoBuildBudgetColdAndWarm(t *testing.T) {
	charge := yFillCharge(t)
	for _, limit := range []int64{charge - 1, charge} {
		db := memoDB()
		for _, phase := range []string{"cold", "warm"} {
			gov := NewGovernor(context.Background(), Limits{MaxBuildBytes: limit})
			_, err := CollectBatchesGoverned(gov, storedJoin(NewCtxGoverned(db, gov), JoinHash, "y.a", ""), AnyRows)
			if fails := errors.Is(err, ErrBudgetExceeded); fails != (limit < charge) {
				t.Errorf("%s, limit %d of charge %d: err %v", phase, limit, charge, err)
			}
			if limit < charge && phase == "cold" {
				if keptBuild(t, yBuild(db)) != nil {
					t.Fatal("a build over budget was kept")
				}
				// Fill the memo ungoverned: the warm query is served it.
				collect(t, storedJoin(NewCtx(db), JoinHash, "y.a", ""))
			}
		}
	}
}

// TestMemoWarmHashBuildFault pins that a query served a kept build passes
// the hash.build fault point: an armed error rule fails it.
func TestMemoWarmHashBuildFault(t *testing.T) {
	db := memoDB()
	collect(t, storedJoin(NewCtx(db), JoinHash, "y.a", ""))
	defer faultinject.Activate(faultinject.Schedule{Seed: 1, Rules: []faultinject.Rule{
		{Point: faultinject.PointHashBuild, Kind: faultinject.Error, OneInN: 1},
	}})()
	_, err := CollectBatches(storedJoin(NewCtx(db), JoinHash, "y.a", ""))
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("warm execution under an armed hash.build rule: %v", err)
	}
}

// TestMemoFillCancellation cancels the query filling the memo mid-build: it
// surfaces ErrCanceled and keeps nothing, and the next execution builds
// afresh, keeps its build and matches nested loops.
func TestMemoFillCancellation(t *testing.T) {
	db := memoDB()
	deactivate := slowPoint(faultinject.PointHashBuild)
	defer deactivate()
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gov := NewGovernor(cctx, Limits{})
	done := make(chan error, 1)
	go func() {
		_, err := CollectBatchesGoverned(gov, storedJoin(NewCtxGoverned(db, gov), JoinHash, "y.a", ""), AnyRows)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the fill within 5s")
	}
	deactivate()
	if keptBuild(t, yBuild(db)) != nil {
		t.Fatal("a canceled fill kept its build")
	}
	got := collect(t, storedJoin(NewCtx(db), JoinHash, "y.a", "")).String()
	if want := collect(t, storedJoin(NewCtx(db), JoinNL, "y.a", "")).String(); got != want {
		t.Fatalf("rerun after the canceled fill:\ngot  %s\nwant %s", got, want)
	}
	if keptBuild(t, yBuild(db)) == nil {
		t.Error("the rerun did not keep its build")
	}
}
