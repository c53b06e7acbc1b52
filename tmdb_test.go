package tmdb_test

import (
	"strings"
	"testing"

	"tmdb"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

func TestPublicQuickstartPath(t *testing.T) {
	cat, db := tmdb.CompanyExample(4, 24, 1)
	eng := tmdb.New(cat, db)
	res, err := eng.Query(`SELECT d.name FROM DEPT d`, tmdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.Len() != 4 {
		t.Errorf("|DEPT| = %d", res.Value.Len())
	}
}

func TestPublicStrategiesExported(t *testing.T) {
	cat, db := tmdb.CompanyExample(4, 24, 2)
	eng := tmdb.New(cat, db)
	q := `SELECT e FROM EMP e WHERE e.sal > 3000`
	var want tmdb.Value
	for i, s := range []tmdb.Strategy{tmdb.Naive, tmdb.NestJoin, tmdb.Kim, tmdb.OuterJoin} {
		res, err := eng.Query(q, tmdb.Options{Strategy: s})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if i == 0 {
			want = res.Value
		} else if !value.Equal(res.Value, want) {
			t.Errorf("strategy %v differs on un-nested query", s)
		}
	}
}

func TestPublicJoinImpls(t *testing.T) {
	cat, db := tmdb.CompanyExample(4, 24, 3)
	eng := tmdb.New(cat, db)
	q := `SELECT (d = d.name, n = COUNT(SELECT e FROM EMP e WHERE e.address.city = d.address.city)) FROM DEPT d`
	var want tmdb.Value
	for i, ji := range []tmdb.JoinImpl{tmdb.AutoJoins, tmdb.NestedLoopJoins, tmdb.HashJoins, tmdb.MergeJoins} {
		res, err := eng.Query(q, tmdb.Options{Strategy: tmdb.NestJoin, Joins: ji})
		if err != nil {
			t.Fatalf("%v: %v", ji, err)
		}
		if i == 0 {
			want = res.Value
		} else if !value.Equal(res.Value, want) {
			t.Errorf("join impl %v differs", ji)
		}
	}
}

func TestPublicSchemaBuilding(t *testing.T) {
	cat := tmdb.NewCatalog()
	rowT := types.Tuple(types.F("k", types.Int))
	if err := cat.AddClass("K", "KS", rowT); err != nil {
		t.Fatal(err)
	}
	db := tmdb.NewDB()
	if err := db.MustCreate("KS", rowT).Load([]tmdb.Value{value.TupleOf(value.F("k", value.Int(7)))}); err != nil {
		t.Fatal(err)
	}
	eng := tmdb.New(cat, db)
	res, err := eng.Query(`SELECT x.k FROM KS x`, tmdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(res.Value, value.SetOf(value.Int(7))) {
		t.Errorf("result = %s", res.Value)
	}
}

func TestRewritePinPreservesSemantics(t *testing.T) {
	cat, db := tmdb.CompanyExample(4, 24, 4)
	eng := tmdb.New(cat, db)
	// TRUE conjunct is dropped by the rewriter; result unchanged.
	q := `SELECT e.name FROM EMP e WHERE TRUE AND e.sal > 3000`
	plain, err := eng.Query(q, tmdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rewritten, err := eng.Query(q, tmdb.Options{PinAlt: tmdb.AltRewrite})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(plain.Value, rewritten.Value) {
		t.Error("the rewrite pin changed semantics")
	}
}

// TestPublicPinnedExplainShowsCosts: through the facade, EXPLAIN under a
// pinned strategy annotates each operator with its estimate and lists the
// join families the planner costed for that strategy.
func TestPublicPinnedExplainShowsCosts(t *testing.T) {
	cat, db := tmdb.CompanyExample(4, 24, 5)
	eng := tmdb.New(cat, db)
	out, err := eng.Explain(
		`SELECT (d = d.name, es = SELECT e.name FROM EMP e WHERE e.address.city = d.address.city) FROM DEPT d`,
		tmdb.Options{Strategy: tmdb.NestJoin})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"strategy=nestjoin ", "(fixed)", "NestJoin", "rows≈", "candidates considered:", "← chosen"} {
		if !strings.Contains(out, want) {
			t.Errorf("pinned Explain missing %q:\n%s", want, out)
		}
	}
}
