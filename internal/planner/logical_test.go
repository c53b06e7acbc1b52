package planner

import (
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/exec"
	"tmdb/internal/schema"
	"tmdb/internal/stats"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// logicalEnv builds a catalog/db/translator over a mid-size XYZ instance.
func logicalEnv(t *testing.T) (*schema.Catalog, *storage.DB, *core.Translator, *Estimator) {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 80, NY: 240, NZ: 160, Keys: 12, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 31,
	})
	return cat, db, core.NewTranslator(cat), NewEstimatorStats(stats.New(db))
}

func translate(t *testing.T, cat *schema.Catalog, tr *core.Translator, q string, s core.Strategy) algebra.Plan {
	t.Helper()
	bound, err := tmql.NewBinder(cat).Bind(tmql.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	p, err := tr.Translate(bound, s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runPlan(t *testing.T, db *storage.DB, p algebra.Plan) value.Value {
	t.Helper()
	tree, _, err := compilePlan(exec.NewCtx(db), PhysicalSpec{}, p)
	if err != nil {
		t.Fatal(err)
	}
	v, err := exec.CollectBatches(tree)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestJoinOrdersReorderAndAgree: a three-table flat join's graph must yield
// join-order alternatives whose plans execute to the same result as the
// FROM-order translation.
func TestJoinOrdersReorderAndAgree(t *testing.T) {
	cat, db, tr, est := logicalEnv(t)
	q := `SELECT (xb = x.b, zc = z.c) FROM X x, Y y, Z z WHERE x.b = y.d AND y.b = z.d`
	base := translate(t, cat, tr, q, core.StrategyNestJoin)
	want := runPlan(t, db, base)

	orders := est.JoinOrders(algebra.NewBuilder(cat), tr.JoinGraph())
	if len(orders) == 0 {
		t.Fatalf("no join-order alternatives for a three-table chain:\n%s", algebra.Explain(base))
	}
	for _, o := range orders {
		if _, ok := OrderLabel(o.Alt); !ok {
			t.Errorf("alternative label %q is not an order label", o.Alt)
		}
		got := runPlan(t, db, o.Plan)
		if !value.Equal(got, want) {
			t.Errorf("%s: reordered plan changed the result:\n%s", o.Alt, algebra.Explain(o.Plan))
		}
	}
}

// TestJoinOrderPushesLeafSelections: single-relation conjuncts must sit on
// their source's leaf, over its wrap, both in the translation (the FROM-order
// tree) and in every reordered plan.
func TestJoinOrderPushesLeafSelections(t *testing.T) {
	cat, db, tr, est := logicalEnv(t)
	q := `SELECT (xb = x.b, zc = z.c) FROM X x, Z z WHERE x.b = z.d AND x.b > 3`
	base := translate(t, cat, tr, q, core.StrategyNestJoin)
	want := runPlan(t, db, base)
	orders := est.JoinOrders(algebra.NewBuilder(cat), tr.JoinGraph())
	if len(orders) == 0 {
		t.Fatal("no alternatives")
	}
	for _, o := range append(orders, StrategyPlan{Alt: AltBase, Plan: base}) {
		leafSelect := false
		algebra.Walk(o.Plan, func(n algebra.Plan) bool {
			if s, ok := n.(*algebra.Select); ok {
				if _, ok := s.In.(*algebra.Map); ok {
					leafSelect = true
				}
			}
			return true
		})
		if !leafSelect {
			t.Errorf("%s did not push the single-relation conjunct to its leaf:\n%s", o.Alt, algebra.Explain(o.Plan))
		}
		if got := runPlan(t, db, o.Plan); !value.Equal(got, want) {
			t.Errorf("%s changed the result", o.Alt)
		}
	}
}

// TestJoinOrdersNilOffShape: a translation that is not a flat join block
// carries no join graph, so it gets no order alternatives.
func TestJoinOrdersNilOffShape(t *testing.T) {
	cat, _, tr, est := logicalEnv(t)
	translate(t, cat, tr, `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`, core.StrategyNestJoin)
	if g := tr.JoinGraph(); g != nil {
		t.Errorf("semijoin translation carries a join graph over %v", g.Rels)
	}
	if alts := est.JoinOrders(algebra.NewBuilder(cat), tr.JoinGraph()); len(alts) != 0 {
		t.Errorf("semijoin translation yielded order alternatives: %v", alts)
	}
}

// TestAlternativesLabelsAndDedup: the generator labels the translation
// AltBase, emits AltRewrite only when a rule fires, and dedups structural
// repeats.
func TestAlternativesLabelsAndDedup(t *testing.T) {
	cat, db, tr, est := logicalEnv(t)
	b := algebra.NewBuilder(cat)

	// A query whose translation has a selection above a nest-join projection
	// (grouping-class subquery conjunct first, plain conjunct second): the
	// rewrite alternative must appear and differ from base.
	q := `SELECT x.b FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = y.b) AND x.b < 0`
	base := translate(t, cat, tr, q, core.StrategyNestJoin)
	alts := est.Alternatives(b, []StrategyPlan{{Strategy: "nestjoin", Plan: base}})
	labels := map[string]bool{}
	for _, a := range alts {
		labels[a.Alt] = true
	}
	if !labels[AltBase] || !labels[AltRewrite] {
		t.Fatalf("expected base+rewrite alternatives, got %v", labels)
	}
	// All alternatives agree on execution.
	want := runPlan(t, db, base)
	for _, a := range alts {
		if got := runPlan(t, db, a.Plan); !value.Equal(got, want) {
			t.Errorf("alternative %s changed the result", a.Alt)
		}
	}

	// A plain scan has nothing to rewrite or reorder: one alternative only.
	flat := translate(t, cat, tr, `SELECT x.b FROM X x`, core.StrategyNestJoin)
	alts = est.Alternatives(b, []StrategyPlan{{Strategy: "nestjoin", Plan: flat}})
	if len(alts) != 1 || alts[0].Alt != AltBase {
		t.Errorf("identity rewrite must dedup away: %v", alts)
	}
}

// TestPinAlternatives covers the compatibility-override semantics.
func TestPinAlternatives(t *testing.T) {
	alts := []StrategyPlan{
		{Strategy: "nestjoin", Alt: AltBase},
		{Strategy: "nestjoin", Alt: AltRewrite},
		{Strategy: "naive", Alt: AltBase},
	}
	free, err := PinAlternatives(alts, "")
	if err != nil || len(free) != 3 {
		t.Errorf("no pin must keep all: %v %v", free, err)
	}
	// The rewrite pin keeps nestjoin's rewrite and, since naive produced no
	// rewrite, naive's base — the strategy stays in the running.
	rw, err := PinAlternatives(alts, AltRewrite)
	if err != nil || len(rw) != 2 || rw[0].Alt != AltRewrite || rw[1].Strategy != "naive" {
		t.Errorf("rewrite pin: %v %v", rw, err)
	}
	// Rewrite pin with no rewrite available falls back to base.
	baseOnly := alts[2:]
	fb, err := PinAlternatives(baseOnly, AltRewrite)
	if err != nil || len(fb) != 1 || fb[0].Alt != AltBase {
		t.Errorf("rewrite fallback: %v %v", fb, err)
	}
	if _, err := PinAlternatives(alts, "order:(x y)"); err == nil {
		t.Error("pinning an absent order label must error")
	}
	if _, err := PinAlternatives(alts, "nonsense"); err == nil ||
		!strings.Contains(err.Error(), "pinned alternative") {
		t.Errorf("unknown pin error: %v", err)
	}
}

// TestChooseWeighsRewriteAlternative: with histogram statistics, the
// §6-pushdown rewrite of a selective predicate must win the candidate
// enumeration against the as-translated plan.
func TestChooseWeighsRewriteAlternative(t *testing.T) {
	cat, _, tr, est := logicalEnv(t)
	b := algebra.NewBuilder(cat)
	q := `SELECT x.b FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = y.b) AND x.b < 0`
	base := translate(t, cat, tr, q, core.StrategyNestJoin)
	alts := est.Alternatives(b, []StrategyPlan{{Strategy: "nestjoin", Plan: base}})
	best, all, err := est.Choose(alts, PhysicalSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if best.Alt != AltRewrite {
		t.Errorf("expected the rewrite alternative to win, chose %s; candidates:", best.Alt)
		for _, c := range all {
			t.Logf("  %s", c)
		}
	}
}
