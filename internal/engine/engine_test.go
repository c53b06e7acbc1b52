package engine

import (
	"strings"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

func TestQueryEndToEnd(t *testing.T) {
	cat, db := datagen.Table1()
	eng := New(cat, db)
	res, err := eng.Query(`SELECT x.e FROM X x WHERE x.d = 1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(res.Value, value.SetOf(value.Int(1))) {
		t.Errorf("result = %s", res.Value)
	}
	if res.Plan == nil || res.Expr == nil {
		t.Error("result missing plan/expr")
	}
	if res.Duration <= 0 {
		t.Error("duration not measured")
	}
}

func TestQueryStrategiesAgree(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	eng := New(cat, db)
	q := `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`
	var first value.Value
	for i, s := range []core.Strategy{core.StrategyNaive, core.StrategyNestJoin, core.StrategyOuterJoin} {
		res, err := eng.Query(q, Options{Strategy: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if i == 0 {
			first = res.Value
			continue
		}
		if !value.Equal(res.Value, first) {
			t.Errorf("%s differs from naive", s)
		}
	}
}

func TestQueryJoinImplOption(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	eng := New(cat, db)
	q := `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`
	base, err := eng.Query(q, Options{Strategy: core.StrategyNestJoin, Joins: planner.ImplNestedLoop})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := eng.Query(q, Options{Strategy: core.StrategyNestJoin, Joins: planner.ImplHash})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(base.Value, hash.Value) {
		t.Error("join impls disagree")
	}
}

func TestQueryErrors(t *testing.T) {
	cat, db := datagen.Table1()
	eng := New(cat, db)
	if _, err := eng.Query("SELECT", Options{}); err == nil {
		t.Error("parse error should propagate")
	}
	if _, err := eng.Query("SELECT q.a FROM NOPE q", Options{}); err == nil {
		t.Error("bind error should propagate")
	}
	if _, err := eng.Query("1 / 0", Options{}); err == nil {
		t.Error("runtime error should propagate")
	}
}

func TestExplain(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	eng := New(cat, db)
	out, err := eng.Explain(
		`SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`,
		Options{Strategy: core.StrategyNestJoin})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NestJoin") {
		t.Errorf("Explain should show the nest join:\n%s", out)
	}
	if _, err := eng.Explain("SELECT", Options{}); err == nil {
		t.Error("Explain should propagate parse errors")
	}
	if _, err := eng.Explain("nosuchvar", Options{}); err == nil {
		t.Error("Explain should propagate bind errors")
	}
}

func TestEvalStepsReported(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	eng := New(cat, db)
	// The quantifier the groupjoin tests its groups with is outside the
	// compiled subset, so the unnested plan still does evaluator work to
	// count.
	q := `SELECT x FROM X x WHERE FORALL w IN x.a (w IN SELECT y.a FROM Y y WHERE x.b = y.b)`
	naive, err := eng.Query(q, Options{Strategy: core.StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	unnested, err := eng.Query(q, Options{Strategy: core.StrategyNestJoin})
	if err != nil {
		t.Fatal(err)
	}
	if naive.EvalSteps == 0 || unnested.EvalSteps == 0 {
		t.Error("EvalSteps not counted")
	}
	if unnested.EvalSteps >= naive.EvalSteps {
		t.Errorf("unnested plan should do less expression work: naive=%d unnested=%d",
			naive.EvalSteps, unnested.EvalSteps)
	}
}

func TestAccessors(t *testing.T) {
	cat, db := datagen.Table1()
	eng := New(cat, db)
	if eng.Catalog() != cat || eng.DB() != db {
		t.Error("accessors broken")
	}
}
