package core

import (
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// TestNonNeighborCorrelationFallsBack: the paper restricts §8 to neighbor
// predicates (free variables declared in the immediately surrounding block).
// A subquery referencing its grandparent variable must not be mis-flattened;
// the translator keeps the offending conjunct for naive evaluation and the
// answer must match the oracle.
func TestNonNeighborCorrelationFallsBack(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	q := `SELECT x FROM X x
	 WHERE x.a SUBSETEQ
	   SELECT y.a FROM Y y
	   WHERE x.b = y.b AND
	     y.c SUBSETEQ SELECT z.c FROM Z z WHERE x.b = z.d` // x, not y: grandparent
	want := run(t, cat, db, q, StrategyNaive, planner.ImplAuto)
	got := run(t, cat, db, q, StrategyNestJoin, planner.ImplAuto)
	if !value.Equal(got, want) {
		t.Errorf("non-neighbor correlation broke semantics:\n got %s\nwant %s", got, want)
	}
}

// TestShadowedVariableStaysNaive: if the inner block reuses the outer
// variable name, flattening would capture; the translator must fall back.
func TestShadowedVariableStaysNaive(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	q := `SELECT x FROM X x WHERE x.b IN SELECT x.d FROM Y x WHERE x.b > 0`
	want := run(t, cat, db, q, StrategyNaive, planner.ImplAuto)
	got := run(t, cat, db, q, StrategyNestJoin, planner.ImplAuto)
	if !value.Equal(got, want) {
		t.Errorf("shadowing broke semantics:\n got %s\nwant %s", got, want)
	}
}

// TestUncorrelatedSubqueryIsConstant: per §3.2, subqueries without free
// variables are constants and stay in place.
func TestUncorrelatedSubqueryIsConstant(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	q := `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE y.a > 1`
	want := run(t, cat, db, q, StrategyNaive, planner.ImplAuto)
	got := run(t, cat, db, q, StrategyNestJoin, planner.ImplAuto)
	if !value.Equal(got, want) {
		t.Errorf("uncorrelated subquery broke semantics")
	}
	plan := planFor(t, cat, q, StrategyNestJoin)
	ops := algebra.CountOps(plan)
	if ops["SemiJoin"]+ops["AntiJoin"]+ops["NestJoin"] != 0 {
		t.Errorf("uncorrelated subquery should not be joined:\n%s", algebra.Explain(plan))
	}
}

// TestGroupingWithCorrelatedJoinFunction: the nest join function G(x, y) may
// reference the outer variable (the paper's general form).
func TestGroupingWithCorrelatedJoinFunction(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	q := `SELECT x FROM X x
	 WHERE x.a SUBSETEQ SELECT y.a + x.b - x.b FROM Y y WHERE x.b = y.b`
	want := run(t, cat, db, q, StrategyNaive, planner.ImplAuto)
	got := run(t, cat, db, q, StrategyNestJoin, planner.ImplAuto)
	if !value.Equal(got, want) {
		t.Errorf("correlated join function broke semantics")
	}
	// Kim cannot pre-group a correlated G and must fall back (decompose
	// rejects it), still agreeing with the oracle.
	kim := run(t, cat, db, q, StrategyKim, planner.ImplAuto)
	if !value.Equal(kim, want) {
		t.Errorf("Kim fallback on correlated G broke semantics")
	}
}

// TestEmptyTables: every strategy on empty inputs.
func TestEmptyTables(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{NX: 0, NY: 0, NZ: 0, Keys: 1, Seed: 1})
	queries := []string{
		`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
		`SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`,
		`SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.d) FROM X x`,
	}
	for _, q := range queries {
		for _, s := range []Strategy{StrategyNaive, StrategyNestJoin, StrategyOuterJoin, StrategyKim} {
			got := run(t, cat, db, q, s, planner.ImplAuto)
			if !got.IsEmptySet() {
				t.Errorf("%s on empty DB: %s", s, got)
			}
		}
	}
}

// TestEmptyInnerOnly: X populated, Y empty — every X tuple is dangling. The
// discriminating case: for x.a = ∅ the ⊆ predicate holds against ∅, so the
// answer is non-empty while Kim returns nothing.
func TestEmptyInnerOnly(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 20, NY: 0, NZ: 0, Keys: 4, DanglingFrac: 0, SetAttrCard: 2, Seed: 9,
	})
	q := `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`
	want := run(t, cat, db, q, StrategyNaive, planner.ImplAuto)
	got := run(t, cat, db, q, StrategyNestJoin, planner.ImplAuto)
	if !value.Equal(got, want) {
		t.Errorf("empty inner: got %s want %s", got, want)
	}
	xTab, _ := db.Table("X")
	emptyA := 0
	for _, x := range xTab.Rows() {
		if x.MustGet("a").IsEmptySet() {
			emptyA++
		}
	}
	if emptyA > 0 && want.Len() == 0 {
		t.Error("instance should have qualifying x.a = ∅ tuples")
	}
	kim := run(t, cat, db, q, StrategyKim, planner.ImplAuto)
	if want.Len() > 0 && kim.Len() != 0 {
		t.Errorf("Kim with empty inner should lose everything, got %d", kim.Len())
	}
}

// TestRewriteOptionOnGeneratedQueries: applying the §6 rewrite rules after
// translation must never change results.
func TestRewriteOptionEquivalence(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	queries := []string{
		section8Query,
		section8FlatVariant,
		`SELECT x.b FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`,
		`SELECT (b = x.b) FROM X x WHERE TRUE AND x.b > 0`,
	}
	for _, q := range queries {
		want := run(t, cat, db, q, StrategyNestJoin, planner.ImplAuto)
		e := mustBind(t, cat, q)
		tr := NewTranslator(cat)
		plan, err := tr.Translate(e, StrategyNestJoin)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := algebra.Optimize(tr.b, plan)
		if err != nil {
			t.Fatalf("Optimize(%s): %v", q, err)
		}
		got := execPlan(t, db, opt)
		if !value.Equal(got, want) {
			t.Errorf("rewrite changed semantics on %s:\nbefore %s\nafter  %s\nplan:\n%s",
				q, want, got, algebra.Explain(opt))
		}
	}
}
