package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/engine"
	"tmdb/internal/value"
)

// TestConformance executes every golden query under every strategy × join
// implementation and asserts all combinations agree with the naive oracle
// (order-normalized: results are canonical sets). Kim is allowed to lose
// dangling tuples on queries flagged KimBuggy; hash/merge combinations are
// skipped where the plan has no equi-key.
func TestConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full strategy × impl matrix; run without -short (CI's dedicated enginetest race job covers it)")
	}
	for _, g := range Goldens {
		t.Run(g.Name, func(t *testing.T) {
			eng := OpenDB(g.DB)
			oracle, err := eng.Query(g.Query, engine.Options{Strategy: core.StrategyNaive})
			if err != nil {
				t.Fatalf("naive oracle: %v", err)
			}
			ran, skipped := 0, 0
			for _, s := range Strategies() {
				for _, ji := range JoinImpls() {
					name := fmt.Sprintf("%s×%s", s, ji)
					res, err := eng.Query(g.Query, engine.Options{Strategy: s, Joins: ji})
					if err != nil {
						if SkippableError(err) {
							skipped++
							continue
						}
						t.Errorf("%s: %v", name, err)
						continue
					}
					ran++
					if value.Equal(res.Value, oracle.Value) {
						continue
					}
					if s == core.StrategyKim && g.KimBuggy {
						// The documented COUNT-bug family: Kim may lose
						// dangling tuples, never invent extra ones.
						if extra := value.Diff(res.Value, oracle.Value); extra.Len() > 0 {
							t.Errorf("%s: Kim produced %d tuples outside the nested semantics", name, extra.Len())
						}
						continue
					}
					lost := value.Diff(oracle.Value, res.Value)
					extra := value.Diff(res.Value, oracle.Value)
					t.Errorf("%s: result differs from naive oracle (lost %d, extra %d)",
						name, lost.Len(), extra.Len())
				}
			}
			if ran == 0 {
				t.Fatal("no combination executed")
			}
			// Auto and naive never skip, so the matrix can't silently shrink
			// to nothing; cross-check the bookkeeping.
			if ran+skipped != len(Strategies())*len(JoinImpls()) {
				t.Fatalf("matrix accounting broken: ran=%d skipped=%d", ran, skipped)
			}
		})
	}
}

// TestConformanceKimBugReproduces pins the flag semantics: at least one
// KimBuggy golden must actually exhibit the bug, or the flags have gone
// stale.
func TestConformanceKimBugReproduces(t *testing.T) {
	exhibited := 0
	for _, g := range Goldens {
		if !g.KimBuggy {
			continue
		}
		eng := OpenDB(g.DB)
		oracle, err := eng.Query(g.Query, engine.Options{Strategy: core.StrategyNaive})
		if err != nil {
			t.Fatal(err)
		}
		kim, err := eng.Query(g.Query, engine.Options{Strategy: core.StrategyKim})
		if err != nil {
			continue
		}
		if value.Diff(oracle.Value, kim.Value).Len() > 0 {
			exhibited++
		}
	}
	if exhibited == 0 {
		t.Error("no KimBuggy golden actually reproduces the COUNT bug")
	}
}

// TestConformanceExplainRenders asserts EXPLAIN renders for every golden
// query under the auto strategy: a header with the chosen combination and
// per-operator estimates.
func TestConformanceExplainRenders(t *testing.T) {
	for _, g := range Goldens {
		eng := OpenDB(g.DB)
		out, err := eng.Explain(g.Query, engine.Options{})
		if err != nil {
			t.Errorf("%s: Explain: %v", g.Name, err)
			continue
		}
		if !strings.HasPrefix(out, "strategy=") || !strings.Contains(out, " alt=") ||
			!strings.Contains(out, "rows≈") {
			t.Errorf("%s: malformed Explain output:\n%s", g.Name, out)
		}
	}
}

// naiveLeafGoldens are the goldens whose auto plan keeps a naive leaf, each
// with its reason.
var naiveLeafGoldens = map[string]string{
	"shadowed-inner-variable": "the inner block rebinds x, so it is an uncorrelated constant left in place",
}

// blockShapes are the goldens of the block builder's three shapes: FROM
// subqueries, a multi-FROM block with a correlated subquery, a multi-FROM
// inner block.
var blockShapes = map[string]bool{
	"from-clause-subqueries":         true,
	"multi-from-correlated-subquery": true,
	"multi-from-inner-block":         true,
}

// TestNaiveLeaves: EXPLAIN's line after the header counts the naive leaves
// of the auto plan. No golden has one except those naiveLeafGoldens lists,
// the block shapes have neither one nor an Eval leaf, and the non-linear
// inner block — whose neighbor predicate holds a subquery correlated to the
// outer variable — stays nested as one.
func TestNaiveLeaves(t *testing.T) {
	explain := func(db, q string) []string {
		out, err := OpenDB(db).Explain(q, engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return strings.Split(out, "\n")
	}
	shapes := 0
	for _, g := range Goldens {
		lines := explain(g.DB, g.Query)
		_, listed := naiveLeafGoldens[g.Name]
		if strings.HasPrefix(lines[1], "naive leaves:") != listed {
			t.Errorf("%s: naive leaves listed %v:\n%s", g.Name, listed, strings.Join(lines, "\n"))
		}
		if blockShapes[g.Name] {
			shapes++
			if strings.Contains(strings.Join(lines, "\n"), "Eval[") {
				t.Errorf("%s: block shape keeps an Eval leaf:\n%s", g.Name, strings.Join(lines, "\n"))
			}
		}
	}
	if shapes != len(blockShapes) {
		t.Errorf("%d of the %d block shapes are goldens", shapes, len(blockShapes))
	}
	nonLinear := `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d AND x.a SUBSETEQ SELECT z.c FROM Z z WHERE x.b = z.d`
	if lines := explain("xyz", nonLinear); lines[1] != "naive leaves: 1" {
		t.Errorf("non-linear inner block:\n%s", strings.Join(lines, "\n"))
	}
}
