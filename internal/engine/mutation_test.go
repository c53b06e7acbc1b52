package engine

import (
	"strings"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// Queries for the per-table invalidation tests: one touching X and Y, one
// touching only Z.
const (
	xyQ = `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`
	zQ  = `SELECT z.c FROM Z z WHERE z.d = 1`
)

// sameAsNaive fails unless res is the naive oracle's answer to q on the
// current data.
func sameAsNaive(t *testing.T, eng *Engine, q string, res *Result) {
	t.Helper()
	oracle, err := eng.Query(q, Options{Strategy: core.StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	if value.Key(res.Value) != value.Key(oracle.Value) {
		t.Errorf("%s: result differs from the naive oracle", q)
	}
}

// insertY adds n fresh rows to Y with a-values from base upwards.
func insertY(t *testing.T, eng *Engine, base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if added, err := eng.InsertValue("Y", datagen.YRow(int64(base+i), 7, 1, 424242)); err != nil || !added {
			t.Fatalf("insert %d: added=%v err=%v", i, added, err)
		}
	}
}

// TestMutationInvalidatesPerTable is the acceptance test for the plan cache
// under writes. Within the drift bound a read after a write is a cache hit
// costed against the same statistics generation, nothing is swept, and the
// result still equals naive; once Y has drifted past a tenth of its
// cardinality — or after Analyze — the X⋈Y query replans against fresh
// statistics. The Z-only query and Z's statistics are untouched throughout.
func TestMutationInvalidatesPerTable(t *testing.T) {
	eng := xyzEngine(t)
	for _, q := range []string{xyQ, zQ} {
		if _, err := eng.Query(q, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	genY, genZ := eng.Stats().Table("Y"), eng.Stats().Table("Z")
	bound := genY.Card / 10

	insertY(t, eng, 1000, 1)
	if st := eng.PlanCacheStats(); st.Entries != 2 || st.Invalidations != 0 {
		t.Errorf("a write swept the plan cache: %+v", st)
	}
	res, err := eng.Query(xyQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || eng.Stats().Table("Y") != genY {
		t.Errorf("read after a write within the bound: hit=%v, same generation=%v", res.CacheHit, eng.Stats().Table("Y") == genY)
	}
	sameAsNaive(t, eng, xyQ, res)

	// Drift Y past the bound: the next read replans against a new generation.
	insertY(t, eng, 2000, bound)
	res, err = eng.Query(xyQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := eng.Stats().Table("Y")
	if res.CacheHit || fresh == genY || fresh.Card != genY.Card+bound+1 {
		t.Errorf("read past the bound: hit=%v, Card=%d (collected at %d, %d rows since)", res.CacheHit, fresh.Card, genY.Card, bound+1)
	}
	sameAsNaive(t, eng, xyQ, res)

	// Analyze forces exactness after a single write.
	insertY(t, eng, 3000, 1)
	if eng.Analyze().Table("Y") == fresh {
		t.Error("Analyze left a mutated table's statistics alone")
	}
	res, err = eng.Query(xyQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("read after Analyze served a plan costed against the previous generation")
	}
	sameAsNaive(t, eng, xyQ, res)

	resZ, err := eng.Query(zQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resZ.CacheHit || eng.Stats().Table("Z") != genZ {
		t.Error("writes to Y cost the Z-only query its plan or Z its statistics")
	}
	if st := eng.PlanCacheStats(); st.Invalidations != 0 {
		t.Errorf("writes swept the plan cache: %+v", st)
	}
}

// TestMutationRefreshesStatsLazily: statistics stay at their generation
// while a table drifts within the bound, Analyze brings exactly the mutated
// table up to date, and an untouched table is never rescanned.
func TestMutationRefreshesStatsLazily(t *testing.T) {
	eng := xyzEngine(t)
	genY, genZ := eng.Stats().Table("Y"), eng.Stats().Table("Z")

	if _, err := eng.Insert("Y", `(a = 2, b = 7, c = {1}, d = 555555)`); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Table("Y") != genY {
		t.Error("one insert into a 120-row table recollected it")
	}
	if got := eng.Analyze().Table("Y").Card; got != genY.Card+1 {
		t.Errorf("Y Card after insert + Analyze = %d, want %d", got, genY.Card+1)
	}

	n, err := eng.Delete("Y", "y", "y.d = 555555")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("deleted %d rows, want 1", n)
	}
	if got := eng.Analyze().Table("Y").Card; got != genY.Card {
		t.Errorf("Y Card after delete + Analyze = %d, want %d", got, genY.Card)
	}
	if eng.Stats().Table("Z") != genZ {
		t.Error("Z statistics recollected although Z never mutated")
	}
}

// TestMutationDeleteThroughPlanner: Delete runs its predicate as the planned query
// SELECT v FROM T v WHERE pred and removes exactly the rows the naive
// evaluator selects — also when the predicate subqueries the table being
// mutated — through an index scan when an index covers the predicate, and
// without leaving its one-shot plan in the plan cache.
func TestMutationDeleteThroughPlanner(t *testing.T) {
	for _, pred := range []string{
		`y.d < 0`,
		`y.d = 3`,
		`y.b = 2 AND y.a < 4`,
		`y.d IN SELECT o.d FROM Y o WHERE o.b = y.b AND o.a < y.a`,
		`false`,
	} {
		eng := xyzEngine(t)
		if err := eng.CreateIndex("Y", "d"); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Query(xyQ, Options{}); err != nil {
			t.Fatal(err)
		}
		want, err := eng.Query(`SELECT y FROM Y y WHERE `+pred, Options{Strategy: core.StrategyNaive})
		if err != nil {
			t.Fatal(err)
		}
		if (want.Value.Len() == 0) != (pred == `false`) {
			t.Fatalf("%s selects %d rows: the case is vacuous", pred, want.Value.Len())
		}
		tab, _ := eng.DB().Table("Y")
		before, cache := tab.AsSet(), eng.PlanCacheStats()
		n, err := eng.Delete("Y", "y", pred)
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		if n != want.Value.Len() || !value.Equal(tab.AsSet(), value.Diff(before, want.Value)) {
			t.Errorf("%s: removed %d rows, naive selects %d; or the wrong ones", pred, n, want.Value.Len())
		}
		if after := eng.PlanCacheStats(); after.Entries != cache.Entries || after.Misses != cache.Misses {
			t.Errorf("%s: the victim plan went through the plan cache: %+v → %+v", pred, cache, after)
		}
	}

	eng := xyzEngine(t)
	if err := eng.CreateIndex("Y", "d"); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Explain(`SELECT y FROM Y y WHERE y.d = 3`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "access=idxscan") || !strings.Contains(out, "using Y(d)") {
		t.Errorf("the victim query of an indexed predicate is not an index scan:\n%s", out)
	}
	_, err = eng.Delete("Y", "y", "y.d + 1")
	if err == nil || !strings.Contains(err.Error(), "engine: delete predicate must be BOOL, got") {
		t.Errorf("non-BOOL predicate: %v", err)
	}
}

// TestMutationEntryPointErrors pins the typed surface: unknown tables,
// ill-typed tuples, and non-boolean predicates are rejected.
func TestMutationEntryPointErrors(t *testing.T) {
	eng := xyzEngine(t)
	if _, err := eng.Insert("GHOST", `(a = 1)`); err == nil {
		t.Error("insert into unknown table must fail")
	}
	if _, err := eng.Insert("Y", `(totally = "wrong")`); err == nil {
		t.Error("ill-typed insert must fail")
	}
	if _, err := eng.Delete("Y", "y", "y.d + 1"); err == nil {
		t.Error("non-boolean delete predicate must fail")
	}
	if _, err := eng.Delete("GHOST", "g", "true"); err == nil {
		t.Error("delete from unknown table must fail")
	}
	if err := eng.CreateIndex("GHOST", "d"); err == nil {
		t.Error("index on unknown table must fail")
	}
	if err := eng.CreateIndex("Y", "nope"); err == nil {
		t.Error("index on unknown attribute must fail")
	}
}

// TestIndexBackedJoinChosen is the acceptance test for index-aware planning:
// after CreateIndex, EXPLAIN lists an idxjoin candidate, the optimizer picks
// it (statistics favor skipping the build pass), execution matches the naive
// oracle, and a subsequent mutation still keeps everything consistent.
func TestIndexBackedJoinChosen(t *testing.T) {
	eng := xyzEngine(t)
	before, err := eng.Query(xyQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if before.Joins == planner.ImplIndex {
		t.Fatal("idxjoin chosen without an index")
	}

	if err := eng.CreateIndex("Y", "d"); err != nil {
		t.Fatal(err)
	}
	// CreateIndex does not change the data, but it must invalidate cached
	// plans for Y so the new physical candidate competes.
	res, err := eng.Query(xyQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("CreateIndex must invalidate cached plans for the table")
	}
	if res.Joins != planner.ImplIndex {
		t.Errorf("optimizer chose %s, want idxjoin", res.Joins)
	}
	out, err := eng.Explain(xyQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "joins=idxjoin") || !strings.Contains(out, "idxjoin") {
		t.Errorf("EXPLAIN misses the idxjoin choice:\n%s", out)
	}
	if !strings.Contains(out, "Idx") || !strings.Contains(out, "using Y(d)") {
		t.Errorf("EXPLAIN misses the index operator rendering:\n%s", out)
	}

	oracle, err := eng.Query(xyQ, Options{Strategy: core.StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	if value.Key(res.Value) != value.Key(oracle.Value) {
		t.Error("idxjoin result differs from naive oracle")
	}

	// Mutate through the index: insert a matching partner for a dangling X
	// row and re-check conformance end to end.
	if _, err := eng.Insert("Y", `(a = 2, b = 1, c = {1}, d = 0 - 1)`); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Query(xyQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle2, err := eng.Query(xyQ, Options{Strategy: core.StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	if value.Key(after.Value) != value.Key(oracle2.Value) {
		t.Error("idxjoin result stale after mutation")
	}
	if value.Key(after.Value) == value.Key(oracle.Value) {
		t.Log("note: mutation did not change the result set (data-dependent); conformance still verified")
	}

	// The fixed idxjoin family is also directly selectable.
	fixed, err := eng.Query(xyQ, Options{Strategy: core.StrategyNestJoin, Joins: planner.ImplIndex})
	if err != nil {
		t.Fatal(err)
	}
	if value.Key(fixed.Value) != value.Key(oracle2.Value) {
		t.Error("fixed idxjoin result differs from naive oracle")
	}
}

// TestDatagenNeverMutates guards the XYZ generator contract used above: the
// insert literals must stay type-compatible with the generated schema.
func TestDatagenMutationLiteralShape(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{NX: 5, NY: 5, NZ: 5, Keys: 2, DanglingFrac: 0, SetAttrCard: 2, Seed: 1})
	eng := New(cat, db)
	if _, err := eng.Insert("Y", `(a = 4, b = 1, c = {3}, d = 2)`); err != nil {
		t.Fatalf("generator schema drifted from the test literals: %v", err)
	}
}
