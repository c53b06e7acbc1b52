package enginetest

import (
	"fmt"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// skewedXYZ are the hot-bucket instances: a 90/10 skew, where one join key
// holds ~90% of the matched rows so one hash bucket carries almost all the
// join work, and a single matched key, where every matched row lands in one
// hash bucket and one merge run.
var skewedXYZ = []struct {
	name string
	spec datagen.Spec
}{
	{"skew90", datagen.Spec{
		NX: 300, NY: 600, NZ: 300, Keys: 10, DanglingFrac: 0.2,
		SetAttrCard: 3, SkewFrac: 0.9, Seed: 7,
	}},
	{"onekey", datagen.Spec{
		NX: 120, NY: 240, NZ: 120, Keys: 1, DanglingFrac: 0.2,
		SetAttrCard: 3, Seed: 7,
	}},
}

// TestConformanceSkewMatchesNaive executes every fuzz query shape on each
// hot-bucket instance under the auto planner and the nest-join and outer-join
// strategies, crossed with every join family that needs no index and with
// row-at-a-time and batched execution, and asserts each result is
// byte-identical to the naive oracle.
func TestConformanceSkewMatchesNaive(t *testing.T) {
	strategies := []core.Strategy{core.StrategyAuto, core.StrategyNestJoin, core.StrategyOuterJoin}
	impls := []planner.JoinImpl{planner.ImplAuto, planner.ImplNestedLoop, planner.ImplHash, planner.ImplMerge}
	for _, d := range skewedXYZ {
		cat, db := datagen.XYZ(d.spec)
		eng := engine.New(cat, db)
		for qi, q := range fuzzQueries {
			t.Run(fmt.Sprintf("%s/q%d", d.name, qi), func(t *testing.T) {
				oracle, err := eng.Query(q, engine.Options{Strategy: core.StrategyNaive})
				if err != nil {
					t.Fatalf("naive: %v", err)
				}
				want := value.Key(oracle.Value)
				for _, s := range strategies {
					for _, ji := range impls {
						for _, batch := range []int{-1, 64} {
							mode := "row"
							if batch > 0 {
								mode = fmt.Sprintf("b%d", batch)
							}
							t.Run(fmt.Sprintf("%s×%s/%s", s, ji, mode), func(t *testing.T) {
								res, err := eng.Query(q, engine.Options{Strategy: s, Joins: ji, BatchSize: batch})
								if SkippableError(err) {
									t.Skip(err)
								}
								if err != nil {
									t.Fatal(err)
								}
								if value.Key(res.Value) != want {
									t.Errorf("skewed result not byte-identical to naive (%d vs %d rows)",
										res.Value.Len(), oracle.Value.Len())
								}
							})
						}
					}
				}
			})
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
