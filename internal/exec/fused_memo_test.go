package exec_test

import (
	"fmt"
	"strings"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/exec"
	"tmdb/internal/planner"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// fusedBuildQuery builds its semijoin's hash table over a FROM subquery
// projecting d off the join of Y and Z: fused into that join when d
// compiles, a map over the unfused join when it does not.
const fusedBuildQuery = `SELECT x FROM X x WHERE x.b IN SELECT v.d FROM (SELECT (b = y.b, d = %s) FROM Y y, Z z WHERE y.d = z.d) v WHERE x.b = v.b`

// semiBuild returns the right input of the first semijoin in tree.
func semiBuild(t *testing.T, tree exec.BatchIterator) exec.BatchIterator {
	t.Helper()
	switch o := tree.(type) {
	case *exec.Map:
		return semiBuild(t, o.In)
	case *exec.Join:
		return o.R
	}
	t.Fatalf("no semijoin under %T", tree)
	return nil
}

// TestFusedBuildFormsStayApart: a hash build over a fused join is kept in
// the snapshot's memo under a form naming the join's output and the operands
// it binds, so it serves neither a build over the same join fused with
// another output nor one over the same join unfused. The three queries
// alternate on one snapshot, each checked against naive evaluation, and the
// forms of their joins differ with neither a prefix of another.
func TestFusedBuildFormsStayApart(t *testing.T) {
	eng := engine.New(datagen.XYZ(datagen.Spec{NX: 60, NY: 150, NZ: 80, Keys: 12, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1994}))
	outs := []string{"y.d", "y.a", "y.d + 0"}
	opts := engine.Options{Strategy: core.StrategyNestJoin, Joins: planner.ImplHash}
	want := map[string]string{}
	var forms []string
	for _, d := range outs {
		q := fmt.Sprintf(fusedBuildQuery, d)
		res, err := eng.Query(q, engine.Options{Strategy: core.StrategyNaive})
		if err != nil {
			t.Fatal(err)
		}
		want[d] = value.Key(res.Value)

		bound, err := tmql.NewBinder(eng.Catalog()).Bind(tmql.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := core.NewTranslator(eng.Catalog()).Translate(bound, core.StrategyNestJoin)
		if err != nil {
			t.Fatal(err)
		}
		tree, _, err := planner.Compile(exec.NewCtx(eng.DB()), planner.NewEstimatorStats(eng.Stats()).Resolve(plan, planner.PhysicalSpec{Joins: planner.ImplHash}))
		if err != nil {
			t.Fatal(err)
		}
		dedup, ok := semiBuild(t, tree).(*exec.Map)
		if !ok {
			t.Fatalf("%s: the semijoin builds over %T, not the subquery's map", d, semiBuild(t, tree))
		}
		j, ok := dedup.In.(*exec.Join)
		if fused := d != "y.d + 0"; !ok || (j.Out != nil) != fused {
			t.Fatalf("%s: the subquery's map is over %T, want a join fused %v", d, dedup.In, fused)
		}
		form, ok := exec.PlanForm(j)
		if !ok {
			t.Fatalf("%s: the join has no form", d)
		}
		forms = append(forms, form)
	}
	if want["y.d"] == want["y.a"] {
		t.Fatal("the two fused outputs select the same rows: the test cannot tell them apart")
	}
	for i := range forms {
		for k := range forms {
			if i != k && strings.HasPrefix(forms[k], forms[i]) {
				t.Errorf("the join form of %s is a prefix of that of %s", outs[i], outs[k])
			}
		}
	}
	for round := 0; round < 4; round++ {
		for _, d := range outs {
			res, err := eng.Query(fmt.Sprintf(fusedBuildQuery, d), opts)
			if err != nil {
				t.Fatal(err)
			}
			if value.Key(res.Value) != want[d] {
				t.Fatalf("round %d, d = %s: %d rows differ from naive evaluation", round, d, res.Value.Len())
			}
		}
	}
}
