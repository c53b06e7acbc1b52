package enginetest

import (
	"testing"

	"tmdb/internal/engine"
	"tmdb/internal/exec"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// The collector is the one place a result is deduplicated: no compiled root
// is a deduplicating map, and the planner reports what the root guarantees
// (exec.Rows) so the collector only sorts rows reported duplicate-free. A
// wrong report would yield a "set" holding a row twice, so these tests drain
// every root reported duplicate-free and fail on a repeated row.

// TestRootsLeaveDeduplicationToTheCollector walks every golden × catalog
// (bare and indexed) × fixed strategy × logical alternative × join family ×
// access path: no root is an exec.Map with Distinct, every root reported
// duplicate-free drains without repeating a row, and every root reported
// repeating collects what it drains, sorted and deduplicated.
func TestRootsLeaveDeduplicationToTheCollector(t *testing.T) {
	var counts [3]int
	for _, g := range Goldens {
		for _, indexed := range []bool{false, true} {
			eng := OpenDB(g.DB)
			name := g.Name + "/bare"
			if indexed {
				registerAccessIndexes(t, eng, g.DB)
				name = g.Name + "/indexed"
			}
			forEachCompiled(t, eng, name, g.Query, func(t *testing.T, resolved *planner.Tree, tree exec.BatchIterator, mode exec.Rows) {
				if m, ok := tree.(*exec.Map); ok && m.Distinct {
					t.Fatal("the root is a deduplicating map")
				}
				counts[mode]++
				rows := drainRows(t, tree)
				if mode == exec.AnyRows {
					again, _, err := planner.Compile(exec.NewCtx(eng.DB()), resolved)
					if err != nil {
						t.Fatal(err)
					}
					got, err := exec.CollectBatches(again)
					if err != nil {
						t.Fatal(err)
					}
					if !value.Equal(got, value.SetOf(rows...)) {
						t.Fatalf("collected %d rows, the root drains %d distinct", got.Len(), value.SetOf(rows...).Len())
					}
					return
				}
				seen := make(map[string]bool, len(rows))
				for _, r := range rows {
					k := value.Key(r)
					if seen[k] {
						t.Fatalf("reported duplicate-free, but the root repeats %s", r)
					}
					seen[k] = true
				}
			})
		}
	}
	if counts[exec.AnyRows] < 100 || counts[exec.DistinctRows] < 100 || counts[exec.CanonicalRows] < 100 {
		t.Errorf("roots reported repeating, duplicate-free and canonical: %v; a mode is barely derived", counts)
	}
}

// drainRows drains tree and returns its rows.
func drainRows(t *testing.T, tree exec.BatchIterator) []value.Value {
	t.Helper()
	if err := tree.Open(); err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	var rows []value.Value
	for {
		bt, ok, err := tree.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows
		}
		rows = append(rows, bt...)
	}
}

// TestPointRootsReportDuplicateFree: the benchmark's point lookups through an
// index and its semijoin point, as auto plans them on benchmark-sized data
// with the point indexes, and Delete's victim query on the same data, have
// roots that repeat no row but do not arrive in canonical order: the
// collector must sort them without hashing them.
func TestPointRootsReportDuplicateFree(t *testing.T) {
	eng := benchEngine(t, true)
	for _, s := range []struct{ name, query string }{
		{"point_x", `SELECT x FROM X x WHERE x.b = 7`},
		{"semi_pt", `SELECT x FROM X x WHERE x.b = 7 AND x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`},
		// What Engine.Delete("Y", "y", "y.d = 7") plans and runs.
		{"delete victims", `SELECT y FROM Y y WHERE y.d = 7`},
	} {
		res, err := eng.Query(s.query, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		spec := planner.PhysicalSpec{Joins: res.Joins, Access: res.Access}
		_, mode, err := planner.Compile(exec.NewCtx(eng.DB()), planner.NewEstimatorStats(eng.Stats()).Resolve(res.Plan, spec))
		if err != nil {
			t.Fatal(err)
		}
		if mode != exec.DistinctRows {
			t.Errorf("%s: the root's rows reported as %d, want duplicate-free (%d)", s.name, mode, exec.DistinctRows)
		}
	}
}
