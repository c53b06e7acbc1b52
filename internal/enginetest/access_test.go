package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// Access-path conformance: with persistent indexes registered, every golden
// query must return byte-identical results whether leaf selections read
// through full scans (AccessScan), pinned index scans (AccessIndex — with
// per-selection fallback where no index matches), or free cost-based choice
// (AccessAuto). This is the access-path analog of the strategy × join-impl
// matrix.

// registerAccessIndexes registers the per-database index set on an engine.
func registerAccessIndexes(t *testing.T, eng *engine.Engine, db string) {
	t.Helper()
	for _, spec := range AccessIndexes[db] {
		if err := eng.CreateIndex(spec.Table, spec.Attrs...); err != nil {
			t.Fatalf("CreateIndex(%s, %v): %v", spec.Table, spec.Attrs, err)
		}
	}
}

// TestGoldensAccessPathsByteIdentical runs every golden with indexes
// registered under the three access pins and asserts byte-identical results.
func TestGoldensAccessPathsByteIdentical(t *testing.T) {
	for _, g := range Goldens {
		t.Run(g.Name, func(t *testing.T) {
			eng := OpenDB(g.DB)
			registerAccessIndexes(t, eng, g.DB)
			ref, err := eng.Query(g.Query, engine.Options{Access: planner.AccessScan})
			if err != nil {
				t.Fatal(err)
			}
			for _, access := range []planner.AccessPath{planner.AccessAuto, planner.AccessIndex} {
				res, err := eng.Query(g.Query, engine.Options{Access: access})
				if err != nil {
					t.Errorf("access=%s: %v", access, err)
					continue
				}
				if value.Key(res.Value) != value.Key(ref.Value) {
					t.Errorf("access=%s: result not byte-identical to scan path (%d vs %d rows)",
						access, res.Value.Len(), ref.Value.Len())
				}
			}
		})
	}
}

// TestIndexScanChosenOnGolden: the access-path machinery is live end to end
// — the indexable goldens actually pick idxscan under free choice, so the
// byte-identical matrix above is not vacuously comparing scans to scans.
func TestIndexScanChosenOnGolden(t *testing.T) {
	chosen := 0
	for _, g := range Goldens {
		if g.DB != "xyz" {
			continue
		}
		eng := OpenDB(g.DB)
		registerAccessIndexes(t, eng, g.DB)
		res, err := eng.Query(g.Query, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Access == planner.AccessIndex {
			chosen++
		}
	}
	if chosen == 0 {
		t.Error("no golden picked the idxscan access path under free choice")
	}
}

// TestIndexScanEqualsFilteredScanProperty is the generated-data property
// test: over several generated databases and every live key value (plus
// misses and composite points), a pinned index scan returns exactly the
// filtered full scan, byte for byte.
func TestIndexScanEqualsFilteredScanProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cat, db := datagen.XYZ(datagen.Spec{
			NX: 60 + 10*int(seed), NY: 150, NZ: 90,
			Keys: 6 + int(seed), DanglingFrac: 0.2, SetAttrCard: 3, Seed: seed,
		})
		eng := engine.New(cat, db)
		if err := eng.CreateIndex("X", "b"); err != nil {
			t.Fatal(err)
		}
		if err := eng.CreateIndex("Y", "b", "d"); err != nil {
			t.Fatal(err)
		}
		check := func(q string) {
			t.Helper()
			scan, err := eng.Query(q, engine.Options{Access: planner.AccessScan})
			if err != nil {
				t.Fatalf("seed %d scan %q: %v", seed, q, err)
			}
			idx, err := eng.Query(q, engine.Options{Access: planner.AccessIndex})
			if err != nil {
				t.Fatalf("seed %d idx %q: %v", seed, q, err)
			}
			if value.Key(scan.Value) != value.Key(idx.Value) {
				t.Errorf("seed %d %q: idxscan %d rows != scan %d rows",
					seed, q, idx.Value.Len(), scan.Value.Len())
			}
		}
		for k := -3; k < 10; k++ {
			check(fmt.Sprintf(`SELECT x FROM X x WHERE x.b = %d`, k))
			check(fmt.Sprintf(`SELECT y.a FROM Y y WHERE y.b = %d AND y.d = %d`, k, (k+1)%7))
			check(fmt.Sprintf(`SELECT y FROM Y y WHERE y.b = %d AND y.a > 1`, k))
		}
		// Mutate, then re-check: the incremental index maintenance must keep
		// the property.
		if _, err := eng.InsertValue("Y", datagen.YRow(1, 4, 2, 5)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Delete("X", "x", "x.b = 2"); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 6; k++ {
			check(fmt.Sprintf(`SELECT x FROM X x WHERE x.b = %d`, k))
			check(fmt.Sprintf(`SELECT y.a FROM Y y WHERE y.b = %d AND y.d = %d`, k, (k+2)%7))
		}
	}
}

// TestIndexSourcedBuildsAreNotKept: a hash build whose right input is an
// index-served selection is built for its query alone. The index is not part
// of the snapshot whose memo would keep the build, so a build kept under the
// plan's form would serve the first point constant's rows to a selection with
// another. Two queries differing only in that constant alternate on one
// snapshot, each checked against naive evaluation.
func TestIndexSourcedBuildsAreNotKept(t *testing.T) {
	eng := engine.New(datagen.XYZ(datagen.Spec{NX: 200, NY: 600, NZ: 10, Keys: 50, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1994}))
	if err := eng.CreateIndex("Y", "b", "d"); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE y.b = %d AND x.b = y.d`
	opts := engine.Options{Joins: planner.ImplHash, Access: planner.AccessIndex}
	out, err := eng.Explain(fmt.Sprintf(q, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "HashSemiJoin") || !strings.Contains(out, "Scan(Y) using Y(b,d) prefix=1") {
		t.Fatalf("the build is not over an index-served selection:\n%s", out)
	}
	want := map[int]string{}
	for _, k := range []int{1, 2} {
		res, err := eng.Query(fmt.Sprintf(q, k), engine.Options{Strategy: core.StrategyNaive})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = value.Key(res.Value)
	}
	if want[1] == want[2] {
		t.Fatal("the two point constants select the same rows: the test cannot tell them apart")
	}
	for round := 0; round < 4; round++ {
		for _, k := range []int{1, 2} {
			res, err := eng.Query(fmt.Sprintf(q, k), opts)
			if err != nil {
				t.Fatal(err)
			}
			if value.Key(res.Value) != want[k] {
				t.Fatalf("round %d, y.b = %d: %d rows differ from naive evaluation", round, k, res.Value.Len())
			}
		}
	}
}

// TestNarrowedSourcesShareOneErrorRule: a filter never sees a row that its
// narrowed source skips, whether a leading-label range or an index lookup
// narrows it. A conjunct that fails on every row it is evaluated on fails the
// query under either source exactly when the narrowed rows are not empty,
// while naive evaluation, which reads every row, always fails.
func TestNarrowedSourcesShareOneErrorRule(t *testing.T) {
	eng := benchEngine(t, true)
	if err := eng.CreateIndex("Y", "a"); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT y.b FROM Y y WHERE 1 / (y.d - y.d) = 0 AND y.a = %d`
	sources := []struct {
		name string
		opts engine.Options
		scan string
	}{
		{"range", engine.Options{Strategy: core.StrategyNestJoin, Access: planner.AccessScan}, "Scan(Y) a∈["},
		{"index", engine.Options{Strategy: core.StrategyNestJoin, Access: planner.AccessIndex}, "Scan(Y) using Y(a)"},
	}
	divides := func(err error) bool { return err != nil && strings.Contains(err.Error(), "division by zero") }
	for _, tc := range []struct {
		name  string
		a     int
		empty bool
	}{{"empty", -1, true}, {"rows", 0, false}} {
		query := fmt.Sprintf(q, tc.a)
		if _, err := eng.Query(query, engine.Options{Strategy: core.StrategyNaive}); !divides(err) {
			t.Errorf("%s: naive evaluation = %v, want division by zero", tc.name, err)
		}
		for _, src := range sources {
			out, err := eng.Explain(query, src.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, src.scan) {
				t.Fatalf("%s/%s: the scan is not narrowed as %q:\n%s", tc.name, src.name, src.scan, out)
			}
			res, err := eng.Query(query, src.opts)
			switch {
			case tc.empty && (err != nil || res.Value.Len() != 0):
				t.Errorf("%s/%s: got %v (err %v), want ∅", tc.name, src.name, res.Value, err)
			case !tc.empty && !divides(err):
				t.Errorf("%s/%s: err %v, want division by zero", tc.name, src.name, err)
			}
		}
	}
}
