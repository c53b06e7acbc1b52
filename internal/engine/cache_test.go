package engine

import (
	"runtime"
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

const cacheQ = `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`

// xyzEngine builds a deterministic mid-size engine for cache tests.
func xyzEngine(t *testing.T) *Engine {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 40, NY: 120, NZ: 80, Keys: 10, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 2,
	})
	return New(cat, db)
}

// TestPlanCacheHitsRepeatedQueries checks the memoization contract: the
// first execution misses, repeats hit, results stay identical, and the
// resolved decision (strategy × joins × degree) is stable across hits.
func TestPlanCacheHitsRepeatedQueries(t *testing.T) {
	eng := xyzEngine(t)
	first, err := eng.Query(cacheQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first execution reported a cache hit")
	}
	st := eng.PlanCacheStats()
	if st.Entries != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("after first query: %+v", st)
	}
	for i := 0; i < 3; i++ {
		res, err := eng.Query(cacheQ, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatalf("repeat %d missed the cache", i)
		}
		if !value.Equal(res.Value, first.Value) {
			t.Fatalf("repeat %d: cached plan produced a different result", i)
		}
		if res.Strategy != first.Strategy || res.Joins != first.Joins || res.Parallelism != first.Parallelism {
			t.Fatalf("repeat %d: decision drifted: %v×%v×%d vs %v×%v×%d", i,
				res.Strategy, res.Joins, res.Parallelism,
				first.Strategy, first.Joins, first.Parallelism)
		}
	}
	st = eng.PlanCacheStats()
	if st.Entries != 1 || st.Hits != 3 {
		t.Errorf("after repeats: %+v", st)
	}
}

// TestPlanCacheKeyedOnOptions checks that differing options plan separately:
// a fixed strategy, a different join family, a different degree, and the
// rewrite pin each get their own entry.
func TestPlanCacheKeyedOnOptions(t *testing.T) {
	eng := xyzEngine(t)
	// Degrees are explicit throughout: the zero option resolves to
	// GOMAXPROCS, which on some machines would legitimately collide with an
	// explicit degree (same resolved plan, same entry).
	optss := []Options{
		{Parallelism: 1},
		{Strategy: core.StrategyNestJoin, Parallelism: 1},
		{Strategy: core.StrategyNestJoin, Joins: planner.ImplNestedLoop, Parallelism: 1},
		{Strategy: core.StrategyNestJoin, Parallelism: 2},
		{Strategy: core.StrategyNestJoin, Parallelism: 4},
		{PinAlt: planner.AltRewrite, Parallelism: 1},
	}
	for _, opts := range optss {
		if _, err := eng.Query(cacheQ, opts); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.PlanCacheStats()
	if st.Entries != len(optss) {
		t.Errorf("expected %d distinct entries, got %+v", len(optss), st)
	}
	// And a different query text is a different entry.
	if _, err := eng.Query(`SELECT x.b FROM X x`, Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if st := eng.PlanCacheStats(); st.Entries != len(optss)+1 {
		t.Errorf("expected one more entry, got %+v", st)
	}
}

// TestPlanCacheSurvivesAnalyze pins the per-table invalidation contract:
// Analyze no longer discards the plan cache — statistics are epoch-tracked
// per table, so a cached plan and the statistics it was costed with can only
// go stale together, on mutation. ClearPlanCache still drops everything.
func TestPlanCacheSurvivesAnalyze(t *testing.T) {
	eng := xyzEngine(t)
	if _, err := eng.Query(cacheQ, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.PlanCacheStats(); st.Entries != 1 {
		t.Fatalf("precondition: %+v", st)
	}
	eng.Analyze()
	if st := eng.PlanCacheStats(); st.Entries != 1 {
		t.Errorf("Analyze on unmutated tables must keep cached plans: %+v", st)
	}
	res, err := eng.Query(cacheQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("query after a no-op Analyze must still hit the cache")
	}
	eng.ClearPlanCache()
	if st := eng.PlanCacheStats(); st.Entries != 0 {
		t.Errorf("ClearPlanCache left entries: %+v", st)
	}
}

// TestPlanCacheServesExplain checks Explain and Query share the cache and
// that Explain renders the parallelism degree header.
func TestPlanCacheServesExplain(t *testing.T) {
	eng := xyzEngine(t)
	out, err := eng.Explain(cacheQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "parallelism=") {
		t.Errorf("Explain misses the degree header:\n%s", out)
	}
	res, err := eng.Query(cacheQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("Query after Explain with identical options should hit the cache")
	}
}

// TestParallelismResolution checks the option semantics: 0 resolves to a
// positive default, explicit degrees pass through, and the executed result
// is identical at every degree.
func TestParallelismResolution(t *testing.T) {
	eng := xyzEngine(t)
	if autoDegree(eng.Stats().Table("Y").Card) < 1 {
		t.Error("auto-path default parallelism must be >= 1")
	}
	if (Options{}).pin().Fixed().Degree != 1 {
		t.Error("fixed-path default must stay serial")
	}
	if (Options{Parallelism: 7}).pin().Fixed().Degree != 7 {
		t.Error("explicit parallelism must pass through")
	}
	base, err := eng.Query(cacheQ, Options{Strategy: core.StrategyNestJoin, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Parallelism != 1 {
		t.Errorf("resolved degree = %d, want 1", base.Parallelism)
	}
	for _, p := range []int{2, 8} {
		res, err := eng.Query(cacheQ, Options{Strategy: core.StrategyNestJoin, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if res.Parallelism != p {
			t.Errorf("resolved degree = %d, want %d", res.Parallelism, p)
		}
		if !value.Equal(res.Value, base.Value) {
			t.Errorf("degree %d changed the result", p)
		}
	}
}

// TestAutoDegreeStatsSized pins the statistics-driven partition sizing: with
// the degree left to the planner, the candidate degree comes from the row
// estimates of the query's tables (~1k rows per partition) instead of the
// machine width, while explicit pins are untouched.
func TestAutoDegreeStatsSized(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 procs to partition")
	}
	eng := xyzEngine(t) // 40–120-row tables: the sized bound is 2
	res, err := eng.Query(`SELECT (xb = x.b, yd = y.d) FROM X x, Y y WHERE x.b = y.d`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parallelism > 2 {
		t.Errorf("auto degree = %d over tiny tables, want <= 2 (stats-sized)", res.Parallelism)
	}
	// An explicit pin still opens exactly the requested degree (fixed
	// strategy: the degree is the caller's, not a costed candidate).
	pinned, err := eng.Query(`SELECT (xb = x.b, yd = y.d) FROM X x, Y y WHERE x.b = y.d`,
		Options{Strategy: core.StrategyNestJoin, Joins: planner.ImplHash, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Parallelism != 8 {
		t.Errorf("pinned degree = %d, want 8", pinned.Parallelism)
	}
	if !value.Equal(res.Value, pinned.Value) {
		t.Error("sized and pinned degrees disagree on the result")
	}
}

// TestPlanCacheShapes pins the shape-keyed cache contract: texts differing
// only in a slotted constant share one entry — the later ones hit, carry
// their own constant in Result.Plan and match naive — while a constant's
// kind, a COUNT bound, an IN-list and a bool comparand are part of the shape.
func TestPlanCacheShapes(t *testing.T) {
	const count = `SELECT x FROM X x WHERE COUNT(SELECT y FROM Y y WHERE x.b = y.d) >= `
	const flag = `SELECT s FROM (SELECT (b = x.b, p = x.b > 2) FROM X x) s WHERE s.p = `
	cases := []struct {
		name    string
		texts   []string
		entries int
		// shows is a fragment of the last text's plan, absent from the first's.
		shows string
	}{
		{"slotted constant", []string{`SELECT x FROM X x WHERE x.b = 3`, `SELECT x FROM X x WHERE x.b = 5`}, 1, "x.b = 5"},
		{"reversed operands", []string{`SELECT y.a FROM Y y WHERE 2 < y.d AND y.b = 1`, `SELECT y.a FROM Y y WHERE 6 < y.d AND y.b = 4`}, 1, "6 < y.d"},
		{"kinds", []string{`SELECT v FROM {} v WHERE v.a = 1`, `SELECT v FROM {} v WHERE v.a = 1.0`, `SELECT v FROM {} v WHERE v.a = "1"`}, 3, `"1"`},
		{"COUNT bound", []string{count + `1`, count + `2`}, 2, ">= 2"},
		{"IN-list", []string{`SELECT x FROM X x WHERE x.b IN {1, 2}`, `SELECT x FROM X x WHERE x.b IN {1, 3}`}, 2, "{1, 3}"},
		{"bool comparand", []string{flag + `TRUE`, flag + `FALSE`}, 2, "false"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, oracle := xyzEngine(t), xyzEngine(t)
			var first, last *Result
			for i, text := range tc.texts {
				res, err := eng.Query(text, Options{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracle.Query(text, Options{Strategy: core.StrategyNaive})
				if err != nil {
					t.Fatal(err)
				}
				if !value.Equal(res.Value, want.Value) {
					t.Errorf("%s: auto %s, naive %s", text, res.Value, want.Value)
				}
				if hit := i >= tc.entries; res.CacheHit != hit {
					t.Errorf("%s: CacheHit = %v, want %v", text, res.CacheHit, hit)
				}
				if first == nil {
					first = res
				}
				last = res
			}
			if st := eng.PlanCacheStats(); st.Entries != tc.entries {
				t.Errorf("entries = %d, want %d", st.Entries, tc.entries)
			}
			if !strings.Contains(algebra.Explain(last.Plan), tc.shows) || strings.Contains(algebra.Explain(first.Plan), tc.shows) {
				t.Errorf("plans do not carry their own constants:\nfirst:\n%s\nlast:\n%s",
					algebra.Explain(first.Plan), algebra.Explain(last.Plan))
			}
		})
	}

	t.Run("EXPLAIN of a hit", func(t *testing.T) {
		eng := xyzEngine(t)
		if err := eng.CreateIndex("X", "b"); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Query(`SELECT x FROM X x WHERE x.b = 3 AND x.b <> 7`, Options{}); err != nil {
			t.Fatal(err)
		}
		out, err := eng.Explain(`SELECT x FROM X x WHERE x.b = 5 AND x.b <> 9`, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st := eng.PlanCacheStats(); st.Entries != 1 || st.Hits != 1 {
			t.Errorf("EXPLAIN of the same shape missed: %+v", st)
		}
		if !strings.Contains(out, "IndexScan(X) using X(b) residual[x.b <> 9]") {
			t.Errorf("EXPLAIN of a hit does not show its own constant:\n%s", out)
		}
	})
}
