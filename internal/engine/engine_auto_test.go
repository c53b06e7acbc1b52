package engine

import (
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// Tests for the cost-based (StrategyAuto) path: zero Options must pick a
// correct plan, report the choice, and explain it.

func autoEngine(t *testing.T) *Engine {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 120, NY: 360, NZ: 240, Keys: 15, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 3,
	})
	return New(cat, db)
}

func TestAutoMatchesNaiveAndFlattens(t *testing.T) {
	eng := autoEngine(t)
	q := `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`
	oracle, err := eng.Query(q, Options{Strategy: core.StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := eng.Query(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !auto.Auto {
		t.Error("zero Options must take the cost-based path")
	}
	if !value.Equal(auto.Value, oracle.Value) {
		t.Error("auto plan disagrees with the naive oracle")
	}
	if auto.Strategy != core.StrategyNestJoin {
		t.Errorf("auto chose %s; the nest-join strategy is cheapest here", auto.Strategy)
	}
	if auto.Joins == planner.ImplNestedLoop {
		t.Error("auto must not pick nested loops for an equi-key nest join at this scale")
	}
	if auto.Cost.Work <= 0 {
		t.Errorf("auto result must carry the estimate, got %v", auto.Cost)
	}
	if auto.EvalSteps >= oracle.EvalSteps {
		t.Errorf("auto (%d steps) should beat naive (%d steps)", auto.EvalSteps, oracle.EvalSteps)
	}
}

func TestAutoNeverPicksKim(t *testing.T) {
	eng := autoEngine(t)
	// A COUNT-between-blocks query — the shape Kim's transformation gets
	// wrong on dangling tuples.
	cat, db := datagen.RS(100, 300, 20, 0.3, 5)
	rs := New(cat, db)
	q := `SELECT r FROM R r WHERE r.B = COUNT(SELECT s.D FROM S s WHERE r.C = s.C)`
	oracle, err := rs.Query(q, Options{Strategy: core.StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := rs.Query(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Strategy == core.StrategyKim {
		t.Fatal("auto selected Kim, which loses dangling tuples")
	}
	if !value.Equal(auto.Value, oracle.Value) {
		t.Error("auto result differs from nested semantics")
	}
	_ = eng
}

func TestAutoHonorsFixedJoins(t *testing.T) {
	eng := autoEngine(t)
	q := `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`
	res, err := eng.Query(q, Options{Joins: planner.ImplNestedLoop})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Auto {
		t.Error("strategy enumeration should still run with a fixed join family")
	}
	if res.Joins != planner.ImplNestedLoop && res.Strategy != core.StrategyNaive {
		t.Errorf("fixed join family ignored: %s × %s", res.Strategy, res.Joins)
	}
}

func TestExplainAutoListsCandidates(t *testing.T) {
	eng := autoEngine(t)
	q := `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`
	out, err := eng.Explain(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"strategy=nestjoin", "(cost-based)", "rows≈", "candidates considered:", "← chosen", "naive",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

// evalOnlyQ is a query no strategy unnests: its FROM item w ranges over a
// set-valued attribute of the earlier item x, which the paper keeps nested
// (§3.2), so its nestjoin and outerjoin translations are each one bare Eval
// node — the naive plan under another name.
const evalOnlyQ = `SELECT (b = x.b, w = w) FROM X x, x.a w WHERE w IN SELECT y.d FROM Y y WHERE x.b = y.b`

// TestAutoNamesBareEvalNaive: on the cost-based path a translation that is a
// bare Eval node is the naive candidate, so EXPLAIN's header, its candidate
// table and Result.Strategy all say naive, and no duplicate rows appear
// under the name of a strategy that never translated the query.
func TestAutoNamesBareEvalNaive(t *testing.T) {
	eng := autoEngine(t)
	out, err := eng.Explain(evalOnlyQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "strategy=naive ") {
		t.Errorf("Explain header names a strategy that did not translate the query:\n%s", out)
	}
	cands, err := eng.PlanCandidates(evalOnlyQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Strategy != core.StrategyNaive.String() {
			t.Errorf("candidate %s duplicates the naive plan", c)
		}
	}
	res, err := eng.Query(evalOnlyQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, bare := res.Plan.(*algebra.EvalNode); !bare || res.Strategy != core.StrategyNaive {
		t.Errorf("Result.Strategy = %s over %s, want naive over a bare Eval", res.Strategy, res.Plan.Describe(nil))
	}
}

// TestExplainSingleCandidatePrintsNoTable: a query only naive unnests
// leaves one candidate, so EXPLAIN prints no candidate table.
func TestExplainSingleCandidatePrintsNoTable(t *testing.T) {
	eng := autoEngine(t)
	out, err := eng.Explain(evalOnlyQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "candidates considered:") {
		t.Errorf("Explain prints a candidate table for a single candidate:\n%s", out)
	}
}

// TestPinnedStrategyKeepsBareEvalName: a pinned strategy is reported as
// pinned, even when its translation is a bare Eval node.
func TestPinnedStrategyKeepsBareEvalName(t *testing.T) {
	eng := autoEngine(t)
	opts := Options{Strategy: core.StrategyOuterJoin}
	out, err := eng.Explain(evalOnlyQ, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "strategy=outerjoin ") {
		t.Errorf("pinned Explain header:\n%s", out)
	}
	res, err := eng.Query(evalOnlyQ, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, bare := res.Plan.(*algebra.EvalNode); !bare || res.Strategy != core.StrategyOuterJoin {
		t.Errorf("Result.Strategy = %s over %s, want outerjoin over a bare Eval", res.Strategy, res.Plan.Describe(nil))
	}
}

func TestExplainFixedStrategy(t *testing.T) {
	eng := autoEngine(t)
	q := `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`
	out, err := eng.Explain(q, Options{Strategy: core.StrategyNestJoin, Joins: planner.ImplNestedLoop})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(fixed)") || !strings.Contains(out, "NLNestJoin") {
		t.Errorf("fixed Explain:\n%s", out)
	}
}

func TestExplainInfeasibleJoinsErrors(t *testing.T) {
	eng := autoEngine(t)
	// x.b < y.b has no equi-key: a fixed hash request must fail in Explain
	// exactly as it would in Query.
	q := `SELECT (xb = x.b, yb = y.b) FROM X x, Y y WHERE x.b < y.b`
	if _, err := eng.Explain(q, Options{Strategy: core.StrategyNestJoin, Joins: planner.ImplHash}); err == nil {
		t.Error("Explain should reject an infeasible fixed join family")
	}
}

func TestResultReportsStrategyOnFixedPath(t *testing.T) {
	eng := autoEngine(t)
	res, err := eng.Query(`SELECT x.b FROM X x`, Options{Strategy: core.StrategyNestJoin})
	if err != nil {
		t.Fatal(err)
	}
	if res.Auto || res.Strategy != core.StrategyNestJoin {
		t.Errorf("fixed path misreported: auto=%v strategy=%s", res.Auto, res.Strategy)
	}
}

// TestPinnedStrategyNarrowsTranslations: a pinned strategy — Kim included —
// restricts the candidates to its own translation and nothing else: the join
// family is still enumerated and chosen by cost, the query runs the cheapest
// feasible candidate, and the answer equals naive evaluation.
func TestPinnedStrategyNarrowsTranslations(t *testing.T) {
	eng := autoEngine(t)
	q := `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`
	for _, s := range []core.Strategy{core.StrategyNaive, core.StrategyNestJoin, core.StrategyKim, core.StrategyOuterJoin} {
		t.Run(s.String(), func(t *testing.T) {
			opts := Options{Strategy: s}
			cands, err := eng.PlanCandidates(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			var chosen *planner.Candidate
			families := map[planner.JoinImpl]bool{}
			for i, c := range cands {
				if c.Strategy != s.String() {
					t.Errorf("candidate %s outside the pinned strategy", c)
				}
				if c.Infeasible == "" {
					families[c.Joins] = true
				}
				if c.Chosen {
					chosen = &cands[i]
				}
			}
			if chosen == nil {
				t.Fatalf("no candidate chosen among %d", len(cands))
			}
			for _, c := range cands {
				if c.Infeasible == "" && c.Cost.Work < chosen.Cost.Work {
					t.Errorf("chose %s over the cheaper %s", chosen, c)
				}
			}
			if s != core.StrategyNaive && len(families) < 2 {
				t.Errorf("pinned %s enumerated join families %v, want the cost-based choice among several", s, families)
			}
			res, err := eng.Query(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Auto || res.Strategy != s || res.Joins != chosen.Joins || res.Access != chosen.Access {
				t.Errorf("ran auto=%v %s × %s × %s, want the chosen %s", res.Auto, res.Strategy, res.Joins, res.Access, chosen)
			}
			sameAsNaive(t, eng, q, res)
		})
	}
}

func TestConcurrentAutoQueries(t *testing.T) {
	// The engine shares one statistics catalog across queries; concurrent
	// cost-based queries must not race on its lazy per-table computation
	// (unsynchronized maps crash outright on concurrent writes).
	eng := autoEngine(t)
	q := `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := eng.Query(q, Options{})
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineAnalyze(t *testing.T) {
	eng := autoEngine(t)
	sc := eng.Analyze()
	if len(sc.Names()) != 3 {
		t.Errorf("Analyze covered %v", sc.Names())
	}
	if sc != eng.Stats() {
		t.Error("Analyze must install the catalog on the engine")
	}
}
