package enginetest

import (
	"slices"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/engine"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// Conformance across mutations: the engine-level guarantee that plans and
// statistics kept across writes never change an answer. Each phase mutates
// the data a different way (insert through the engine, predicate delete,
// a direct storage reload), and after
// every phase the cost-based auto path must agree byte-for-byte with a
// freshly computed naive oracle — with persistent indexes registered so the
// idxjoin family participates, and both with statistics left to drift within
// their bound and with Analyze forcing them exact between phases.

// mutationQueries are the conformance queries for the mutation cycles; they
// jointly touch X, Y, and Z through semijoin, antijoin, and nest-join paths.
var mutationQueries = []string{
	`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
	`SELECT x FROM X x WHERE x.b NOT IN SELECT y.d FROM Y y WHERE x.b = y.d`,
	`SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`,
	`SELECT (xb = x.b, zc = z.c) FROM X x, Z z WHERE x.b = z.d`,
}

func yRow(a, b, c, d int64) value.Value {
	return value.TupleOf(
		value.F("a", value.Int(a)), value.F("b", value.Int(b)),
		value.F("c", value.SetOf(value.Int(c))), value.F("d", value.Int(d)),
	)
}

// TestConformanceAcrossMutationCycles is the load→mutate→reload conformance
// axis: auto ≡ naive, byte-identical, after every mutation phase — and the
// run that lets statistics drift produces
// the same bytes as the run that analyzes after every phase.
func TestConformanceAcrossMutationCycles(t *testing.T) {
	drifting, analyzed := runMutationCycles(t, false), runMutationCycles(t, true)
	for i := range drifting {
		if drifting[i] != analyzed[i] {
			t.Errorf("result %d differs between drifting and freshly analyzed statistics", i)
		}
	}
}

// runMutationCycles runs the mutation phases on a fresh engine, checks every
// result against the naive oracle, and returns the auto path's result keys
// in execution order. With analyze set, Analyze runs after every phase.
func runMutationCycles(t *testing.T, analyze bool) []string {
	t.Helper()
	eng := OpenDB("xyz")
	for _, ix := range [][2]string{{"Y", "d"}, {"Y", "b"}, {"Z", "d"}} {
		if err := eng.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}

	phases := []struct {
		name   string
		mutate func(t *testing.T)
	}{
		{"initial", func(t *testing.T) {}},
		{"engine-insert", func(t *testing.T) {
			if _, err := eng.InsertValue("Y", yRow(1, 2, 3, 424242)); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.InsertValue("Y", yRow(1, 3, 4, 0)); err != nil {
				t.Fatal(err)
			}
		}},
		{"engine-delete", func(t *testing.T) {
			n, err := eng.Delete("Y", "y", "y.d < 0")
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("delete phase removed nothing (dangling Y rows expected)")
			}
		}},
		{"storage-reload", func(t *testing.T) {
			// Bypass the engine entirely.
			tab, _ := eng.DB().Table("Z")
			rows := append(slices.Clone(tab.AsSet().Elems()),
				value.TupleOf(value.F("c", value.Int(77)), value.F("d", value.Int(1))),
				value.TupleOf(value.F("c", value.Int(78)), value.F("d", value.Int(-5))))
			if err := tab.Load(rows); err != nil {
				t.Fatal(err)
			}
		}},
	}

	var keys []string
	for _, ph := range phases {
		ph.mutate(t)
		if analyze {
			eng.Analyze()
		}
		for qi, q := range mutationQueries {
			oracle, err := eng.Query(q, engine.Options{Strategy: core.StrategyNaive})
			if err != nil {
				t.Fatalf("%s q%d naive: %v", ph.name, qi, err)
			}
			oracleKey := value.Key(oracle.Value)
			res, err := eng.Query(q, engine.Options{})
			if err != nil {
				t.Fatalf("%s q%d auto: %v", ph.name, qi, err)
			}
			keys = append(keys, value.Key(res.Value))
			if value.Key(res.Value) != oracleKey {
				t.Errorf("%s q%d: auto result not byte-identical to naive oracle", ph.name, qi)
			}
			// The pinned idxjoin family must agree too (index probes after
			// incremental maintenance and full rebuilds).
			res, err = eng.Query(q, engine.Options{Strategy: core.StrategyNestJoin, Joins: planner.ImplIndex})
			if err != nil {
				t.Fatalf("%s q%d idxjoin: %v", ph.name, qi, err)
			}
			if value.Key(res.Value) != oracleKey {
				t.Errorf("%s q%d: idxjoin result not byte-identical to naive oracle", ph.name, qi)
			}
		}
	}
	return keys
}

// TestMutationInvalidationIsPerTable checks the cache behavior end to end in
// the harness environment, with storage mutated directly (no engine entry
// point runs): one write to Y leaves every cached plan a hit; writes past
// Y's drift bound make the plan touching Y replan — the statistics
// generation in its key moved — while the plan over Z keeps hitting and Z is
// never rescanned.
func TestMutationInvalidationIsPerTable(t *testing.T) {
	eng := OpenDB("xyz")
	qY := mutationQueries[0] // touches X and Y
	qZ := `SELECT z.c FROM Z z WHERE z.d = 1`
	for _, q := range []string{qY, qZ} {
		if _, err := eng.Query(q, engine.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	genY, genZ := eng.Stats().Table("Y"), eng.Stats().Table("Z")
	if genY.Card < 10 {
		t.Fatalf("Y has %d rows: too small to drift without refreshing", genY.Card)
	}
	tab, _ := eng.DB().Table("Y")
	wantHit := true
	for _, writes := range []int{1, genY.Card / 10} {
		for i := 0; i < writes; i++ {
			if _, err := tab.Insert(yRow(9, 9, int64(writes+i), 909090)); err != nil {
				t.Fatal(err)
			}
		}
		resY, err := eng.Query(qY, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if resY.CacheHit != wantHit || (eng.Stats().Table("Y") == genY) != wantHit {
			t.Errorf("after %d more writes to Y: CacheHit=%v, same generation=%v, want both %v",
				writes, resY.CacheHit, eng.Stats().Table("Y") == genY, wantHit)
		}
		oracle, err := eng.Query(qY, engine.Options{Strategy: core.StrategyNaive})
		if err != nil {
			t.Fatal(err)
		}
		if value.Key(resY.Value) != value.Key(oracle.Value) {
			t.Errorf("after %d more writes to Y: result differs from naive", writes)
		}
		wantHit = false
	}
	resZ, err := eng.Query(qZ, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resZ.CacheHit || eng.Stats().Table("Z") != genZ {
		t.Error("plans and statistics over untouched tables must stay cached")
	}
}

// TestGoldensWithIndexesStayConformant re-runs the full golden table with
// indexes registered on every integer key attribute of the sample databases,
// so index-backed candidates compete everywhere the shapes allow, under the
// full strategy × family matrix.
func TestGoldensWithIndexesStayConformant(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix; covered by the enginetest race job")
	}
	indexed := map[string][][2]string{
		"xyz":    {{"X", "b"}, {"Y", "b"}, {"Y", "d"}, {"Z", "c"}, {"Z", "d"}},
		"rs":     {{"R", "C"}, {"S", "C"}},
		"table1": {{"X", "d"}, {"Y", "b"}},
	}
	for _, g := range Goldens {
		ixs, ok := indexed[g.DB]
		if !ok {
			continue
		}
		t.Run(g.Name, func(t *testing.T) {
			eng := OpenDB(g.DB)
			for _, ix := range ixs {
				if err := eng.CreateIndex(ix[0], ix[1]); err != nil {
					t.Fatal(err)
				}
			}
			oracle, err := eng.Query(g.Query, engine.Options{Strategy: core.StrategyNaive})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range Strategies() {
				for _, ji := range JoinImpls() {
					res, err := eng.Query(g.Query, engine.Options{Strategy: s, Joins: ji})
					if err != nil {
						if SkippableError(err) {
							continue
						}
						t.Errorf("%s×%s: %v", s, ji, err)
						continue
					}
					if value.Equal(res.Value, oracle.Value) {
						continue
					}
					if s == core.StrategyKim && g.KimBuggy {
						continue
					}
					t.Errorf("%s×%s: result differs from naive oracle (%d vs %d rows)",
						s, ji, res.Value.Len(), oracle.Value.Len())
				}
			}
		})
	}
}

// TestIndexedGoldenExplainsShowIdxJoin: with indexes registered, at least
// one golden must actually have the optimizer choose the idxjoin family —
// otherwise the index-aware candidates have gone stale.
func TestIndexedGoldenExplainsShowIdxJoin(t *testing.T) {
	eng := OpenDB("xyz")
	for _, ix := range [][2]string{{"Y", "b"}, {"Y", "d"}, {"Z", "d"}} {
		if err := eng.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	chosen := 0
	for _, g := range Goldens {
		if g.DB != "xyz" {
			continue
		}
		res, err := eng.Query(g.Query, engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if res.Joins == planner.ImplIndex {
			chosen++
		}
	}
	if chosen == 0 {
		t.Error("no xyz golden picks the idxjoin family despite live indexes")
	}
}
