package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/exec"
	"tmdb/internal/planner"
	"tmdb/internal/schema"
	"tmdb/internal/stats"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// run translates and executes src under the strategy, returning the result
// set.
func run(t *testing.T, cat *schema.Catalog, db *storage.DB, src string, s Strategy, ji planner.JoinImpl) value.Value {
	t.Helper()
	v, err := runE(cat, db, src, s, ji)
	if err != nil {
		t.Fatalf("run(%s, %s): %v", s, src, err)
	}
	return v
}

func runE(cat *schema.Catalog, db *storage.DB, src string, s Strategy, ji planner.JoinImpl) (value.Value, error) {
	e, err := tmql.Parse(src)
	if err != nil {
		return value.Value{}, fmt.Errorf("parse: %w", err)
	}
	be, err := tmql.NewBinder(cat).Bind(e)
	if err != nil {
		return value.Value{}, fmt.Errorf("bind: %w", err)
	}
	plan, err := NewTranslator(cat).Translate(be, s)
	if err != nil {
		return value.Value{}, fmt.Errorf("translate: %w", err)
	}
	tree, _, err := planner.Compile(exec.NewCtx(db), planner.NewEstimatorStats(stats.New(db)).Resolve(plan, planner.PhysicalSpec{Joins: ji}))
	if err != nil {
		return value.Value{}, fmt.Errorf("compile: %w", err)
	}
	v, err := exec.CollectBatches(tree)
	if err != nil {
		return value.Value{}, fmt.Errorf("exec (%s): %w", algebra.Explain(plan), err)
	}
	return v, nil
}

// planFor translates src under the strategy and returns the logical plan.
func planFor(t *testing.T, cat *schema.Catalog, src string, s Strategy) algebra.Plan {
	t.Helper()
	e, err := tmql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	be, err := tmql.NewBinder(cat).Bind(e)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewTranslator(cat).Translate(be, s)
	if err != nil {
		t.Fatalf("translate %s: %v", s, err)
	}
	return plan
}

// assertAllStrategiesAgree checks naive = nestjoin (all physical impls) =
// outerjoin on the query; Kim is checked separately where applicable because
// of its documented bug.
func assertAllStrategiesAgree(t *testing.T, cat *schema.Catalog, db *storage.DB, src string) value.Value {
	t.Helper()
	want := run(t, cat, db, src, StrategyNaive, planner.ImplAuto)
	for _, ji := range []planner.JoinImpl{planner.ImplAuto, planner.ImplNestedLoop} {
		if got := run(t, cat, db, src, StrategyNestJoin, ji); !value.Equal(got, want) {
			t.Errorf("nestjoin/%s differs from naive on %s:\n got %s\nwant %s", ji, src, got, want)
		}
	}
	if got := run(t, cat, db, src, StrategyOuterJoin, planner.ImplAuto); !value.Equal(got, want) {
		t.Errorf("outerjoin differs from naive on %s:\n got %s\nwant %s", src, got, want)
	}
	return want
}

// --- WHERE-clause nesting (§4) ---

func TestWhereNestingStrategies(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	queries := []string{
		// Flat-classifiable predicates (Theorem 1): semijoin/antijoin.
		`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
		`SELECT x FROM X x WHERE COUNT(SELECT y.a FROM Y y WHERE x.b = y.d) > 0`,
		`SELECT x FROM X x WHERE (SELECT y.a FROM Y y WHERE x.b = y.d) = {}`,
		`SELECT x FROM X x WHERE x.a SUPSETEQ SELECT y.a FROM Y y WHERE x.b = y.d`,
		`SELECT x FROM X x WHERE x.a INTERSECT (SELECT y.a FROM Y y WHERE x.b = y.d) <> {}`,
		`SELECT x FROM X x WHERE EXISTS v IN (SELECT y.a FROM Y y WHERE x.b = y.d) (v IN x.a)`,
		`SELECT x FROM X x WHERE FORALL v IN (SELECT y.a FROM Y y WHERE x.b = y.d) (v > 0)`,
		// WITH form (the paper's notation).
		`SELECT x FROM X x WHERE x.b IN z WITH z = SELECT y.d FROM Y y WHERE x.b = y.d`,
		// Grouping predicates: nest join + selection.
		`SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.d`,
		`SELECT x FROM X x WHERE COUNT(SELECT y.a FROM Y y WHERE x.b = y.d) = 2`,
		`SELECT x FROM X x WHERE x.a = SELECT y.a FROM Y y WHERE x.b = y.d`,
		`SELECT x.b FROM X x WHERE x.a SUBSET SELECT y.a FROM Y y WHERE x.b = y.d`,
		// Non-equi correlation (forces nested-loop physical plans).
		`SELECT x FROM X x WHERE x.b IN SELECT y.a FROM Y y WHERE y.d < x.b`,
		// Mixed plain + subquery conjuncts.
		`SELECT x FROM X x WHERE x.b > 2 AND x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = y.d) AND COUNT(x.a) < 3`,
		// Result expression other than x.
		`SELECT (b = x.b, n = COUNT(x.a)) FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
	}
	for _, q := range queries {
		assertAllStrategiesAgree(t, cat, db, q)
	}
}

func TestPlanShapes(t *testing.T) {
	cat, _ := datagen.XYZ(datagen.DefaultSpec())
	cases := []struct {
		src    string
		wantOp string
		banOps []string
	}{
		{
			`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
			"SemiJoin", []string{"NestJoin", "AntiJoin"},
		},
		{
			`SELECT x FROM X x WHERE x.b NOT IN SELECT y.d FROM Y y WHERE x.b = y.d`,
			"AntiJoin", []string{"NestJoin", "SemiJoin"},
		},
		{
			`SELECT x FROM X x WHERE x.a SUPSETEQ SELECT y.a FROM Y y WHERE x.b = y.d`,
			"AntiJoin", []string{"NestJoin"},
		},
		{
			`SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.d`,
			"NestJoin", []string{"SemiJoin", "AntiJoin"},
		},
		{
			`SELECT x FROM X x WHERE x.b = COUNT(SELECT y.a FROM Y y WHERE x.b = y.d)`,
			"NestJoin", []string{"SemiJoin", "AntiJoin"},
		},
	}
	for _, c := range cases {
		plan := planFor(t, cat, c.src, StrategyNestJoin)
		ops := algebra.CountOps(plan)
		if ops[c.wantOp] == 0 {
			t.Errorf("plan for %s lacks %s:\n%s", c.src, c.wantOp, algebra.Explain(plan))
		}
		for _, ban := range c.banOps {
			if ops[ban] != 0 {
				t.Errorf("plan for %s should not contain %s:\n%s", c.src, ban, algebra.Explain(plan))
			}
		}
		if ops["Eval"] != 0 {
			t.Errorf("plan for %s fell back to naive:\n%s", c.src, algebra.Explain(plan))
		}
	}
}

// --- The COUNT bug (§2) ---

func TestCountBug(t *testing.T) {
	cat, db := datagen.RS(30, 60, 6, 0.3, 11)
	q := `SELECT r FROM R r WHERE r.B = COUNT(SELECT s.D FROM S s WHERE r.C = s.C)`

	want := assertAllStrategiesAgree(t, cat, db, q)

	// Kim's transformation must lose exactly the dangling R tuples with
	// B = 0 — the COUNT bug.
	kim := run(t, cat, db, q, StrategyKim, planner.ImplAuto)
	lost := value.Diff(want, kim)
	if lost.Len() == 0 {
		t.Fatal("test instance does not exhibit the COUNT bug (no dangling tuples lost)")
	}
	if extra := value.Diff(kim, want); extra.Len() != 0 {
		t.Errorf("Kim produced spurious tuples: %s", extra)
	}
	sTab, _ := db.Table("S")
	sKeys := map[int64]bool{}
	for _, s := range sTab.Rows() {
		sKeys[s.MustGet("C").AsInt()] = true
	}
	for _, r := range lost.Elems() {
		if r.MustGet("B").AsInt() != 0 {
			t.Errorf("lost tuple %s has B ≠ 0: not the COUNT-bug pattern", r)
		}
		if sKeys[r.MustGet("C").AsInt()] {
			t.Errorf("lost tuple %s is not dangling", r)
		}
	}
}

// TestSubsetEqBug reproduces §4.1's SUBSETEQ bug: X tuples with x.a = ∅ and
// no matching Y tuple are lost by Kim's transformation but kept by the nest
// join (x.a ⊆ ∅ holds for x.a = ∅).
func TestSubsetEqBug(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 30, NY: 60, NZ: 0, Keys: 6, DanglingFrac: 0.3, SetAttrCard: 2, Seed: 3,
	})
	q := `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`

	want := assertAllStrategiesAgree(t, cat, db, q)
	kim := run(t, cat, db, q, StrategyKim, planner.ImplAuto)
	lost := value.Diff(want, kim)
	if lost.Len() == 0 {
		t.Fatal("test instance does not exhibit the SUBSETEQ bug")
	}
	for _, x := range lost.Elems() {
		if !x.MustGet("a").IsEmptySet() {
			t.Errorf("lost tuple %s has a ≠ ∅: not the SUBSETEQ-bug pattern", x)
		}
	}
}

// --- Nesting in the SELECT clause (§5) ---

func TestSelectClauseNesting(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	queries := []string{
		`SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.d) FROM X x`,
		`SELECT (b = x.b, n = COUNT(SELECT y FROM Y y WHERE x.b = y.d)) FROM X x`,
		`SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.d) FROM X x WHERE x.b > 0`,
	}
	for _, q := range queries {
		want := run(t, cat, db, q, StrategyNaive, planner.ImplAuto)
		got := run(t, cat, db, q, StrategyNestJoin, planner.ImplAuto)
		if !value.Equal(got, want) {
			t.Errorf("SELECT nesting differs on %s:\n got %s\nwant %s", q, got, want)
		}
		plan := planFor(t, cat, q, StrategyNestJoin)
		if algebra.CountOps(plan)["NestJoin"] == 0 {
			t.Errorf("SELECT-clause nesting should use a nest join:\n%s", algebra.Explain(plan))
		}
	}
}

// TestQ2Company runs the paper's Q2 on the company schema under both
// strategies.
func TestQ2Company(t *testing.T) {
	cat, db := datagen.Company(5, 25, 9)
	q := `SELECT (dname = d.name,
	        emps = SELECT e.name FROM EMP e WHERE e.address.city = d.address.city)
	      FROM DEPT d`
	want := run(t, cat, db, q, StrategyNaive, planner.ImplAuto)
	got := run(t, cat, db, q, StrategyNestJoin, planner.ImplAuto)
	if !value.Equal(got, want) {
		t.Errorf("Q2 differs:\n got %s\nwant %s", got, want)
	}
}

// TestQ1CompanyStaysNested: Q1's subquery ranges over the set-valued
// attribute d.emps, so the paper keeps it nested; the translator must fall
// back to evaluating the predicate in place (no join operators).
func TestQ1CompanyStaysNested(t *testing.T) {
	cat, db := datagen.Company(6, 30, 3)
	q := `SELECT d FROM DEPT d
	      WHERE (s = d.address.street, c = d.address.city)
	        IN SELECT (s = e.address.street, c = e.address.city) FROM d.emps e`
	want := run(t, cat, db, q, StrategyNaive, planner.ImplAuto)
	got := run(t, cat, db, q, StrategyNestJoin, planner.ImplAuto)
	if !value.Equal(got, want) {
		t.Errorf("Q1 differs:\n got %s\nwant %s", got, want)
	}
	plan := planFor(t, cat, q, StrategyNestJoin)
	ops := algebra.CountOps(plan)
	if ops["NestJoin"]+ops["SemiJoin"]+ops["AntiJoin"] != 0 {
		t.Errorf("Q1 must not be flattened (set-valued operand):\n%s", algebra.Explain(plan))
	}
}

// --- UNNEST special case (§5) ---

func TestUnnestCollapse(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	q := `UNNEST(SELECT (SELECT (a = x.b, b = y.a) FROM Y y WHERE x.b = y.d) FROM X x)`
	want := run(t, cat, db, q, StrategyNaive, planner.ImplAuto)
	got := run(t, cat, db, q, StrategyNestJoin, planner.ImplAuto)
	if !value.Equal(got, want) {
		t.Errorf("UNNEST collapse differs:\n got %s\nwant %s", got, want)
	}
	plan := planFor(t, cat, q, StrategyNestJoin)
	ops := algebra.CountOps(plan)
	if ops["Join"] == 0 || ops["NestJoin"] != 0 || ops["Eval"] != 0 {
		t.Errorf("UNNEST special case should be a flat join:\n%s", algebra.Explain(plan))
	}
}

// --- §8: the three-block linear query ---

const section8Query = `
SELECT x FROM X x
WHERE x.a SUBSETEQ
  SELECT y.a FROM Y y
  WHERE x.b = y.b AND
    y.c SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`

// section8FlatVariant is the paper's closing remark: with ⊆ changed to
// ∈ / ∉ the nest joins become a semijoin and an antijoin.
const section8FlatVariant = `
SELECT x FROM X x
WHERE x.b IN
  SELECT y.a FROM Y y
  WHERE x.b = y.b AND
    y.a NOT IN SELECT z.c FROM Z z WHERE y.d = z.d`

func TestSection8ThreeBlockQuery(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	assertAllStrategiesAgree(t, cat, db, section8Query)

	plan := planFor(t, cat, section8Query, StrategyNestJoin)
	ops := algebra.CountOps(plan)
	if ops["NestJoin"] != 2 {
		t.Errorf("§8 strategy should use exactly 2 nest joins, got %d:\n%s",
			ops["NestJoin"], algebra.Explain(plan))
	}
	if ops["Eval"] != 0 {
		t.Errorf("§8 plan fell back to naive:\n%s", algebra.Explain(plan))
	}
}

func TestSection8FlatVariant(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	assertAllStrategiesAgree(t, cat, db, section8FlatVariant)

	plan := planFor(t, cat, section8FlatVariant, StrategyNestJoin)
	ops := algebra.CountOps(plan)
	if ops["SemiJoin"] != 1 || ops["AntiJoin"] != 1 || ops["NestJoin"] != 0 {
		t.Errorf("flat §8 variant should be semijoin+antijoin, got %v:\n%s",
			ops, algebra.Explain(plan))
	}
}

// --- Multi-source FROM blocks ---

// TestFlatJoinQueries: every SELECT-FROM-WHERE block goes through one join
// graph whose relations may be any plan — flat joins, FROM subqueries, a
// multi-FROM outer block holding a correlated subquery in WHERE or SELECT,
// a multi-FROM inner block, an UNNEST collapse holding a subquery — and
// none keeps an Eval leaf. Nothing is captured: not a FROM variable named
// like the translator's nest-join label (nj_2), not an outer variable named
// like the inner graph's (j3), not the outer graph's variable by the inner
// graph's.
func TestFlatJoinQueries(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	queries := []string{
		`SELECT (xb = x.b, ya = y.a) FROM X x, Y y WHERE x.b = y.d`,
		`SELECT (xb = x.b, ya = y.a, zc = z.c) FROM X x, Y y, Z z WHERE x.b = y.d AND y.a = z.c`,
		`SELECT (xb = x.b) FROM X x, Y y WHERE x.b = y.d AND y.a > 1 AND x.b > 0`,
		// Non-equi join predicate.
		`SELECT (xb = x.b, ya = y.a) FROM X x, Y y WHERE x.b < y.d AND y.d < 3`,
		`SELECT x FROM (SELECT x FROM X x WHERE x.b < 5) x, (SELECT y FROM Y y WHERE y.a < 3) y WHERE x.b = y.d`,
		`SELECT x FROM X x, Y y WHERE x.b = y.d AND x.a SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`,
		`SELECT (b = x.b, n = COUNT(SELECT z.c FROM Z z WHERE y.b = z.d)) FROM X x, Y y WHERE x.b = y.d`,
		`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y, Z z WHERE y.d = z.d AND x.b = y.b`,
		`UNNEST(SELECT (SELECT y.a FROM Y y WHERE x.b = y.d AND y.c SUBSETEQ SELECT z.c FROM Z z WHERE y.b = z.d) FROM X x)`,
		`SELECT x FROM X x, Y nj_2 WHERE x.b = nj_2.d AND x.a SUBSETEQ SELECT z.c FROM Z z WHERE nj_2.d = z.d`,
		`SELECT j3 FROM X j3 WHERE j3.b IN SELECT y.d FROM Y y, Z z WHERE y.d = z.d AND j3.b = y.b`,
		`SELECT (b = x.b, n = COUNT(SELECT z.c FROM Z z, Y w WHERE w.d = z.d AND y.b = z.d)) FROM X x, Y y WHERE x.b = y.d`,
	}
	for _, q := range queries {
		want := run(t, cat, db, q, StrategyNaive, planner.ImplAuto)
		for _, ji := range []planner.JoinImpl{planner.ImplAuto, planner.ImplNestedLoop} {
			got := run(t, cat, db, q, StrategyNestJoin, ji)
			if !value.Equal(got, want) {
				t.Errorf("flat join (%s) differs on %s:\n got %s\nwant %s", ji, q, got, want)
			}
		}
		if plan := planFor(t, cat, q, StrategyNestJoin); algebra.CountOps(plan)["Eval"] != 0 {
			t.Errorf("block kept an Eval leaf for %s:\n%s", q, algebra.Explain(plan))
		}
	}
}

// TestBlockBuilderRefusals: the four shapes kept nested, each by its one
// branch — a FROM item over neither a stored extension nor a subquery (a
// path over an earlier FROM variable, §3.2), a FROM subquery with free
// variables, a duplicate FROM variable, and an inner block whose neighbor
// predicate holds a subquery (non-linear). Each still matches naive.
func TestBlockBuilderRefusals(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{NX: 12, NY: 30, NZ: 20, Keys: 4, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1})
	cases := []struct{ q, refusal string }{
		{`SELECT (b = x.b, w = w) FROM X x, x.a w WHERE w > 1`, "core: FROM item w is neither a stored extension nor a subquery"},
		{`SELECT (b = x.b, a = w.a) FROM X x, (SELECT y FROM Y y WHERE x.b = y.b) w`, "core: FROM subquery w has free variables"},
		{`SELECT x FROM X x, Y x WHERE x.b > 0`, "core: duplicate FROM variable x"},
		{`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d AND x.a SUBSETEQ SELECT z.c FROM Z z WHERE x.b = z.d`, ""},
	}
	for _, c := range cases {
		want := run(t, cat, db, c.q, StrategyNaive, planner.ImplAuto)
		if got := run(t, cat, db, c.q, StrategyNestJoin, planner.ImplAuto); !value.Equal(got, want) {
			t.Errorf("refused block differs on %s:\n got %s\nwant %s", c.q, got, want)
		}
		sfw := mustBind(t, cat, c.q).(*tmql.SFW)
		tr := NewTranslator(cat)
		if c.refusal == "" {
			sub := findExtensionSubquery(sfw.Where, "x")
			if blk, err := tr.innerBlock(sub, "x"); blk != nil || err != nil {
				t.Errorf("non-linear inner block translated: %v, %v", blk, err)
			}
			continue
		}
		if _, err := tr.buildBlock(sfw.Froms, nil, sfw.Result); err == nil || err.Error() != c.refusal {
			t.Errorf("%s: refusal %v, want %s", c.q, err, c.refusal)
		}
		if _, bare := planFor(t, cat, c.q, StrategyNestJoin).(*algebra.EvalNode); !bare {
			t.Errorf("%s: refused block is not one Eval leaf", c.q)
		}
	}
}

// --- Multiple subqueries per WHERE (paper future work) ---

func TestMultipleSubqueries(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	queries := []string{
		// Two subquery conjuncts.
		`SELECT x FROM X x
		 WHERE x.b IN (SELECT y.d FROM Y y WHERE x.b = y.d)
		   AND x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = y.b)`,
		// Two subqueries inside one conjunct (forces double nest join).
		`SELECT x FROM X x
		 WHERE COUNT(SELECT y.a FROM Y y WHERE x.b = y.d) =
		       COUNT(SELECT z.c FROM Z z WHERE x.b = z.d)`,
	}
	for _, q := range queries {
		assertAllStrategiesAgree(t, cat, db, q)
	}
}

// --- Property test: random nested queries, all strategies vs the oracle ---

func TestRandomQueriesAllStrategiesQuick(t *testing.T) {
	specs := []datagen.Spec{
		{NX: 15, NY: 40, NZ: 30, Keys: 5, DanglingFrac: 0.3, SetAttrCard: 3, Seed: 2},
		{NX: 25, NY: 25, NZ: 25, Keys: 3, DanglingFrac: 0.0, SetAttrCard: 2, Seed: 5},
		{NX: 10, NY: 80, NZ: 10, Keys: 10, DanglingFrac: 0.5, SetAttrCard: 4, Seed: 8},
	}
	r := rand.New(rand.NewSource(42))
	for si, spec := range specs {
		cat, db := datagen.XYZ(spec)
		for i := 0; i < 40; i++ {
			q := randomNestedQuery(r)
			want, err := runE(cat, db, q, StrategyNaive, planner.ImplAuto)
			if err != nil {
				t.Fatalf("spec %d naive failed on %s: %v", si, q, err)
			}
			got, err := runE(cat, db, q, StrategyNestJoin, planner.ImplAuto)
			if err != nil {
				t.Fatalf("spec %d nestjoin failed on %s: %v", si, q, err)
			}
			if !value.Equal(got, want) {
				t.Fatalf("spec %d: nestjoin differs on %s:\n got %s\nwant %s", si, q, got, want)
			}
			oj, err := runE(cat, db, q, StrategyOuterJoin, planner.ImplAuto)
			if err != nil {
				t.Fatalf("spec %d outerjoin failed on %s: %v", si, q, err)
			}
			if !value.Equal(oj, want) {
				t.Fatalf("spec %d: outerjoin differs on %s:\n got %s\nwant %s", si, q, oj, want)
			}
		}
	}
}

// randomNestedQuery generates a two-block query over the XYZ schema with a
// randomly chosen predicate between blocks, drawn from the forms of Table 2.
func randomNestedQuery(r *rand.Rand) string {
	sub := fmt.Sprintf("SELECT y.a FROM Y y WHERE x.b = y.%s", pick(r, "b", "d"))
	preds := []string{
		"x.b IN (%s)",
		"x.b NOT IN (%s)",
		"(%s) = {}",
		"(%s) <> {}",
		"COUNT(%s) = 0",
		"COUNT(%s) > 0",
		"COUNT(%s) = 2",
		"x.b = COUNT(%s)",
		"x.a SUBSETEQ (%s)",
		"x.a SUPSETEQ (%s)",
		"x.a SUBSET (%s)",
		"x.a SUPSET (%s)",
		"x.a = (%s)",
		"x.a INTERSECT (%s) = {}",
		"x.a INTERSECT (%s) <> {}",
		"EXISTS v IN (%s) (v IN x.a)",
		"FORALL v IN (%s) (v NOT IN x.a)",
		"NOT (x.a SUPSETEQ (%s))",
	}
	pred := fmt.Sprintf(pick(r, preds...), sub)
	extra := ""
	if r.Intn(2) == 0 {
		extra = fmt.Sprintf(" AND x.b %s %d", pick(r, "<", ">", "<=", ">="), r.Intn(6))
	}
	result := pick(r, "x", "x.b", "(b = x.b, n = COUNT(x.a))")
	return fmt.Sprintf("SELECT %s FROM X x WHERE %s%s", result, pred, extra)
}

func pick[T any](r *rand.Rand, xs ...T) T { return xs[r.Intn(len(xs))] }

// --- Kim fallback and error paths ---

func TestKimFallbackAndErrors(t *testing.T) {
	cat, db := datagen.XYZ(datagen.DefaultSpec())
	// Outside canonical form (SELECT-clause nesting): falls back to naive.
	q := `SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.d) FROM X x`
	want := run(t, cat, db, q, StrategyNaive, planner.ImplAuto)
	got := run(t, cat, db, q, StrategyKim, planner.ImplAuto)
	if !value.Equal(got, want) {
		t.Error("Kim fallback should match naive")
	}
	// Non-equi correlation: Kim cannot group.
	_, err := runE(cat, db,
		`SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE y.d < x.b`,
		StrategyKim, planner.ImplAuto)
	if err == nil || !strings.Contains(err.Error(), "equi-correlation") {
		t.Errorf("Kim on non-equi correlation: %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		StrategyNaive: "naive", StrategyNestJoin: "nestjoin",
		StrategyKim: "kim", StrategyOuterJoin: "outerjoin",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %s", s, s.String())
		}
	}
}

// mustBind parses and binds a query for direct translator access.
func mustBind(t *testing.T, cat *schema.Catalog, src string) tmql.Expr {
	t.Helper()
	e, err := tmql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	be, err := tmql.NewBinder(cat).Bind(e)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// execPlan compiles and runs a logical plan, returning its result set.
func execPlan(t *testing.T, db *storage.DB, plan algebra.Plan) value.Value {
	t.Helper()
	tree, _, err := planner.Compile(exec.NewCtx(db), planner.NewEstimatorStats(stats.New(db)).Resolve(plan, planner.PhysicalSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	v, err := exec.CollectBatches(tree)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
