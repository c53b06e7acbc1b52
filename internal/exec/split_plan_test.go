package exec_test

import (
	"fmt"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/engine"
	"tmdb/internal/enginetest"
	"tmdb/internal/exec"
	"tmdb/internal/planner"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// resplit wraps every input edge of a compiled operator tree, and its root,
// in an exec.Split of n rows, so each operator of a real plan sees its input
// cut at n.
func resplit(op exec.BatchIterator, n int) exec.BatchIterator {
	in := func(it *exec.BatchIterator) {
		if *it != nil {
			*it = resplit(*it, n)
		}
	}
	switch o := op.(type) {
	case *exec.Filter:
		in(&o.In)
	case *exec.Map:
		in(&o.In)
	case *exec.NestIter:
		in(&o.In)
	case *exec.UnnestIter:
		in(&o.In)
	case *exec.Join:
		in(&o.L)
		in(&o.R)
	case *exec.SetOpIter:
		in(&o.L)
		in(&o.R)
	}
	return &exec.Split{In: op, N: n}
}

// TestSplitPlansMatchNaive is the plan-level half of the batch-boundary
// coverage: every golden query, translated under every unnesting strategy,
// compiled under every feasible join family with index scans pinned over
// the golden's access indexes, and run with every operator input re-cut into
// batches of 1, 7 and all rows, must be byte-identical to the naive oracle.
// Kim's transformation may lose dangling tuples on KimBuggy goldens, never
// invent any.
func TestSplitPlansMatchNaive(t *testing.T) {
	strategies := []core.Strategy{core.StrategyNestJoin, core.StrategyKim, core.StrategyOuterJoin}
	impls := []planner.JoinImpl{planner.ImplNestedLoop, planner.ImplHash, planner.ImplMerge, planner.ImplIndex}
	for _, g := range enginetest.Goldens {
		eng := enginetest.OpenDB(g.DB)
		for _, ix := range enginetest.AccessIndexes[g.DB] {
			if err := eng.CreateIndex(ix.Table, ix.Attrs...); err != nil {
				t.Fatal(err)
			}
		}
		oracle, err := eng.Query(g.Query, engine.Options{Strategy: core.StrategyNaive})
		if err != nil {
			t.Fatalf("%s: naive: %v", g.Name, err)
		}
		bound, err := tmql.NewBinder(eng.Catalog()).Bind(tmql.MustParse(g.Query))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strategies {
			plan, err := core.NewTranslator(eng.Catalog()).Translate(bound, s)
			if err != nil {
				continue // the strategy does not apply to this query
			}
			for _, ji := range impls {
				resolved := planner.NewEstimatorStats(eng.Stats()).Resolve(plan, planner.PhysicalSpec{Joins: ji, Access: planner.AccessIndex})
				if resolved.Infeasible != "" {
					continue
				}
				for _, n := range []int{1, 7, 0} {
					t.Run(fmt.Sprintf("%s/%s/%s/split=%d", g.Name, s, ji, n), func(t *testing.T) {
						tree, _, err := planner.Compile(exec.NewCtx(eng.DB()), resolved)
						if err != nil {
							t.Fatal(err)
						}
						got, err := exec.CollectBatches(resplit(tree, n))
						if err != nil {
							t.Fatal(err)
						}
						if s == core.StrategyKim && g.KimBuggy {
							if extra := value.Diff(got, oracle.Value); extra.Len() > 0 {
								t.Errorf("Kim produced %d tuples outside the nested semantics", extra.Len())
							}
							return
						}
						if value.Key(got) != value.Key(oracle.Value) {
							t.Errorf("not byte-identical to the naive oracle:\n got  %s\n want %s", got, oracle.Value)
						}
					})
				}
			}
		}
	}
}
