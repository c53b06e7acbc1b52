package enginetest

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// groupjoinPredicates are the P(x, z) the fused groupjoin differential runs:
// the grouping class of the paper's Table 2 (cmd/repro -exp T2), typed for
// the xyz schema (x.a is a set of integers, so the COUNT comparison reads
// x.b), then COUNT(z) θ k for every comparison θ and k ∈ {0, 1, 2}, some of
// which classify as semi- or antijoins, and MIN(z) < 3, which fails on every
// empty group.
func groupjoinPredicates() []string {
	preds := []string{
		"x.b = COUNT(z)",
		"x.a SUBSET z",
		"x.a SUBSETEQ z",
		"x.a SUPSET z",
		"x.a = z",
		"FORALL w IN x.a (w IN z)",
		"FORALL w IN x.a (w NOT IN z)",
		"MIN(z) < 3",
	}
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for k := 0; k <= 2; k++ {
			preds = append(preds, fmt.Sprintf("COUNT(z) %s %d", op, k))
		}
	}
	return preds
}

// TestFusedGroupjoinMatchesNaive runs every groupjoin predicate over z = the
// y.a of x's Y partners on x.b = y.b, under the nest-join strategy and every
// join family, on data where a third of the X rows dangle (their group is ∅,
// the COUNT bug's case) and x.a is often empty. Each result must be
// byte-identical to the naive oracle's, or fail with the oracle's error
// text; and wherever a nest join runs, on any family, EXPLAIN must show it
// fused.
func TestFusedGroupjoinMatchesNaive(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{NX: 60, NY: 150, NZ: 10, Keys: 10, DanglingFrac: 0.3, SetAttrCard: 3, Seed: 5})
	eng := engine.New(cat, db)
	if err := eng.CreateIndex("Y", "b"); err != nil {
		t.Fatal(err)
	}
	impls := []planner.JoinImpl{planner.ImplNestedLoop, planner.ImplHash, planner.ImplIndex, planner.ImplMerge}
	fused := 0
	for _, p := range groupjoinPredicates() {
		q := "SELECT x FROM X x WHERE " + strings.ReplaceAll(p, "z", "(SELECT y.a FROM Y y WHERE x.b = y.b)")
		t.Run(p, func(t *testing.T) {
			oracle, oerr := eng.Query(q, engine.Options{Strategy: core.StrategyNaive})
			for _, ji := range impls {
				opts := engine.Options{Strategy: core.StrategyNestJoin, Joins: ji}
				res, err := eng.Query(q, opts)
				switch {
				case oerr != nil || err != nil:
					if cause(err) != cause(oerr) {
						t.Errorf("%s: error %v, naive %v", ji, err, oerr)
					}
				case value.Key(res.Value) != value.Key(oracle.Value):
					t.Errorf("%s: %d rows, naive %d", ji, res.Value.Len(), oracle.Value.Len())
				}
				plan, err := eng.Explain(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if strings.Contains(plan, "NestJoin[") {
					if !strings.Contains(plan, " | ") {
						t.Errorf("%s: nest join not fused:\n%s", ji, plan)
					}
					fused++
				}
			}
		})
	}
	if fused < 3*len(groupjoinPredicates())/2 {
		t.Errorf("only %d fused plans: the matrix no longer exercises the groupjoin", fused)
	}
}

// cause is the text of the innermost error err wraps: what the failing
// expression reported, without the engine's naming of the plan root.
func cause(err error) string {
	for err != nil && errors.Unwrap(err) != nil {
		err = errors.Unwrap(err)
	}
	return fmt.Sprint(err)
}
