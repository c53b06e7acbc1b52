package planner

import (
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/stats"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
)

func costEnv(t *testing.T) (*Estimator, *algebra.Builder) {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 100, NY: 400, NZ: 200, Keys: 20, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 4,
	})
	return NewEstimatorStats(stats.New(db)), algebra.NewBuilder(cat)
}

func TestScanCardinalityFromStats(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	c := est.Estimate(est.Resolve(x, PhysicalSpec{}))
	// Load's dedup may remove a few duplicates; the estimate is the exact
	// stored cardinality.
	if c.Rows <= 0 || c.Rows > 100 {
		t.Errorf("Scan(X) rows = %v", c.Rows)
	}
	if c.Work != c.Rows {
		t.Errorf("scan work should equal rows: %v", c)
	}
}

func TestSelectionReducesRows(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	sel, _ := b.Select(x, "x", tmql.MustParse("x.b = 3"))
	cx, cs := est.Estimate(est.Resolve(x, PhysicalSpec{})), est.Estimate(est.Resolve(sel, PhysicalSpec{}))
	if cs.Rows >= cx.Rows {
		t.Errorf("selection did not reduce rows: %v -> %v", cx.Rows, cs.Rows)
	}
	if cs.Work <= cx.Work {
		t.Error("selection work should exceed input work")
	}
}

func TestHashCheaperThanNLEstimate(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	equi, _ := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	theta, _ := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b < z.d"))
	ce, ct := est.Estimate(est.Resolve(equi, PhysicalSpec{})), est.Estimate(est.Resolve(theta, PhysicalSpec{}))
	if ce.Work >= ct.Work {
		t.Errorf("equi-join should cost less than theta join: %v vs %v", ce, ct)
	}
}

func TestNestJoinRowsEqualLeft(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	nj, _ := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d"), nil, "s")
	cx, cn := est.Estimate(est.Resolve(x, PhysicalSpec{})), est.Estimate(est.Resolve(nj, PhysicalSpec{}))
	if cn.Rows != cx.Rows {
		t.Errorf("nest join preserves left cardinality: %v vs %v", cn.Rows, cx.Rows)
	}
}

func TestSemijoinCheaperThanNestJoinEstimate(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	semi, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	nj, _ := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d"), nil, "s")
	cs, cn := est.Estimate(est.Resolve(semi, PhysicalSpec{})), est.Estimate(est.Resolve(nj, PhysicalSpec{}))
	if cs.Work > cn.Work {
		t.Errorf("semijoin estimate should not exceed nest join: %v vs %v", cs, cn)
	}
}

func TestEstimateCoversAllOperators(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	m, _ := b.Map(x, "x", tmql.MustParse("(b = x.b)"))
	n, _ := b.Nest(y, []string{"a"}, "g", false)
	u, _ := b.Unnest(x, "a")
	so, _ := b.SetOp(algebra.SetUnion, x, x)
	ev, _ := b.EvalSet(tmql.MustParse("{1}"))
	z, _ := b.Scan("Z")
	oj, err := b.Join(algebra.JoinLeftOuter, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []algebra.Plan{m, n, u, so, ev, oj} {
		c := est.Estimate(est.Resolve(p, PhysicalSpec{}))
		if c.Rows <= 0 || c.Work <= 0 {
			t.Errorf("%s: degenerate estimate %v", p.Describe(nil), c)
		}
	}
}

func TestAndOrSelectivity(t *testing.T) {
	est, b := costEnv(t)
	x, _ := b.Scan("X")
	a, _ := b.Select(x, "x", tmql.MustParse("x.b > 1"))
	and, _ := b.Select(x, "x", tmql.MustParse("x.b > 1 AND x.b < 5"))
	or, _ := b.Select(x, "x", tmql.MustParse("x.b > 1 OR x.b < 5"))
	ca, cAnd, cOr := est.Estimate(est.Resolve(a, PhysicalSpec{})), est.Estimate(est.Resolve(and, PhysicalSpec{})), est.Estimate(est.Resolve(or, PhysicalSpec{}))
	if !(cAnd.Rows < ca.Rows && ca.Rows < cOr.Rows) {
		t.Errorf("selectivity ordering broken: and=%v single=%v or=%v",
			cAnd.Rows, ca.Rows, cOr.Rows)
	}
}

func TestEstimatorUnknownTable(t *testing.T) {
	est := NewEstimatorStats(stats.New(storage.NewDB()))
	c := est.stats.Table("GHOST")
	if c.Card != 0 {
		t.Error("unknown table should have zero card")
	}
}

// TestHiddenSubqueryChargedPerRow: a subquery the translator leaves inside a
// Select predicate runs in the evaluator once per input row, so the plan
// holding it can cost no less than one naive run of the subquery. The
// non-linear inner block, whose neighbor predicate holds a subquery
// correlated to the outer variable, is such a query: it is only planned
// here, never executed, since the hidden nested loop it plans to runs for
// seconds.
func TestHiddenSubqueryChargedPerRow(t *testing.T) {
	cat, _, tr, est := logicalEnv(t)
	q := `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d AND x.a SUBSETEQ SELECT z.c FROM Z z WHERE x.b = z.d`
	bound, err := tmql.NewBinder(cat).Bind(tmql.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	var plans []StrategyPlan
	for _, s := range core.CandidateStrategies() {
		if p, err := tr.Translate(bound, s); err == nil {
			plans = append(plans, StrategyPlan{Strategy: s.String(), Plan: p})
		}
	}
	best, _, err := est.Choose(est.Alternatives(algebra.NewBuilder(cat), plans), PhysicalSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var block tmql.Expr
	tmql.Walk(bound.(*tmql.SFW).Where, func(n tmql.Expr) bool {
		if sfw, ok := n.(*tmql.SFW); ok && block == nil {
			block = sfw
		}
		return block == nil
	})
	if naive := est.evalCost(block).Work; best.Cost.Work < naive {
		t.Errorf("%s/%s chosen at cost≈%.0f, below one naive run of the embedded block (≈%.0f):\n%s",
			best.Strategy, best.Alt, best.Cost.Work, naive, est.Explain(best.Tree, nil))
	}
}
