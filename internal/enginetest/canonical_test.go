package enginetest

import (
	"testing"

	"tmdb/internal/engine"
	"tmdb/internal/exec"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// The planner marks a compiled tree canonical when it emits its rows
// strictly ascending, and the engine then takes the rows as the result set
// without sorting them. A wrong mark would yield an unsorted, possibly
// duplicated "set", so these tests drain every tree marked canonical and
// fail on the first row that is not above the one before.

// drainAscending drains tree and fails unless its rows are strictly
// ascending under value.Compare. It returns how many rows it read.
func drainAscending(t *testing.T, tree exec.BatchIterator) int {
	t.Helper()
	if err := tree.Open(); err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	var prev value.Value
	n := 0
	for {
		bt, ok, err := tree.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		for _, v := range bt {
			if n > 0 && !value.Less(prev, v) {
				t.Fatalf("marked canonical, but row %d %s does not follow %s", n, v, prev)
			}
			prev = v
			n++
		}
	}
}

// TestCanonicalRootsCollectAscending drains every tree marked canonical over
// every golden × catalog (bare and indexed) × fixed strategy × logical
// alternative × join family × access path. A fused projection emits rows it
// builds, so it is never a canonical root, but it may sit in a canonical
// tree: a semijoin probing Scan(X) may build over a fused join and bind the
// rows of the wrap above it, and such trees must be among those drained.
func TestCanonicalRootsCollectAscending(t *testing.T) {
	canonical, rows := 0, 0
	var seen fusedShapes
	for _, g := range Goldens {
		for _, indexed := range []bool{false, true} {
			eng := OpenDB(g.DB)
			est := planner.NewEstimatorStats(eng.Stats())
			name := g.Name + "/bare"
			if indexed {
				registerAccessIndexes(t, eng, g.DB)
				name = g.Name + "/indexed"
			}
			forEachCompiled(t, eng, name, g.Query, func(t *testing.T, resolved *planner.Tree, tree exec.BatchIterator, mode exec.Rows) {
				marked := mode == exec.CanonicalRows
				if j, ok := tree.(*exec.Join); ok && j.Out != nil && marked {
					t.Fatal("a fused projection is marked canonical")
				}
				if marked {
					canonical++
					matchExplain(t, est, resolved, tree, &seen)
					rows += drainAscending(t, tree)
				}
			})
		}
	}
	if canonical < 150 || rows == 0 {
		t.Errorf("only %d canonical trees with %d rows: the property is barely derived", canonical, rows)
	}
	if seen.fused == 0 || seen.absorbed == 0 {
		t.Errorf("the canonical trees hold %d fused projections and %d absorbed wraps", seen.fused, seen.absorbed)
	}
}

// TestNestedExecRootsCanonical compiles the benchmark's six nested
// statements as auto plans them on benchmark-sized data, bare and with the
// point indexes: the four whose root is Map[x](x) over a semi join or a
// groupjoin probing Scan(X) must be marked canonical, and every tree marked
// so must drain strictly ascending and collect the engine's result.
func TestNestedExecRootsCanonical(t *testing.T) {
	want := map[string]bool{"in": true, "subseteq": true, "chain3": true, "count": true}
	for _, indexed := range []bool{false, true} {
		eng := benchEngine(t, indexed)
		for _, s := range benchShapes[:6] {
			res, err := eng.Query(s.query, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			spec := planner.PhysicalSpec{Joins: res.Joins, Access: res.Access}
			tree, rows, err := planner.Compile(exec.NewCtx(eng.DB()), planner.NewEstimatorStats(eng.Stats()).Resolve(res.Plan, spec))
			if err != nil {
				t.Fatal(err)
			}
			marked := rows == exec.CanonicalRows
			if marked != want[s.name] {
				t.Errorf("%s (indexed %v): marked canonical %v, want %v", s.name, indexed, marked, want[s.name])
			}
			if marked {
				if n := drainAscending(t, tree); n != res.Value.Len() {
					t.Errorf("%s (indexed %v): drained %d rows, the result has %d", s.name, indexed, n, res.Value.Len())
				}
			}
		}
	}
}
