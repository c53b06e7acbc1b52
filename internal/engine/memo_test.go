package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"tmdb/internal/datagen"
	"tmdb/internal/planner"
	"tmdb/internal/storage"
	"tmdb/internal/value"
)

// memoQueries are two of the nested_exec workload's statements whose hash
// builds run over a bare scan of Y: a semijoin and a nest join.
var memoQueries = []string{
	`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
	`SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`,
}

// danglingPartners returns Y rows that give the first dangling X row (one
// whose key matches no Y row) with a non-empty x.a matches for both
// memoQueries: one row per element of x.a, all under its key on y.b and y.d.
func danglingPartners(t *testing.T, eng *Engine) []value.Value {
	t.Helper()
	xs, _ := eng.DB().Table("X")
	for _, x := range xs.Rows() {
		if b := x.MustGet("b").AsInt(); b < 0 && x.MustGet("a").Len() > 0 {
			var rows []value.Value
			for _, a := range x.MustGet("a").Elems() {
				rows = append(rows, datagen.YRow(a.AsInt(), b, 1, b))
			}
			return rows
		}
	}
	t.Fatal("no dangling X row")
	return nil
}

// TestSnapshotMemoPreparedAcrossWrites executes a prepared semijoin and a
// prepared nest join, writes Y so that both answers change, executes them
// again, then deletes the rows and executes once more — under auto and
// under pinned hash joins, with and without indexes on Y. Every result must
// equal the naive oracle on the data of the moment, and the write must show.
func TestSnapshotMemoPreparedAcrossWrites(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		for _, opts := range []Options{{}, {Joins: planner.ImplHash}} {
			eng := xyzEngine(t)
			if indexed {
				for _, attr := range []string{"b", "d"} {
					if err := eng.CreateIndex("Y", attr); err != nil {
						t.Fatal(err)
					}
				}
			}
			partners := danglingPartners(t, eng)
			for _, q := range memoQueries {
				p, err := eng.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				exec := func() value.Value {
					t.Helper()
					res, err := p.Query(opts)
					if err != nil {
						t.Fatal(err)
					}
					sameAsNaive(t, eng, q, res)
					return res.Value
				}
				exec()
				before := exec()
				for _, r := range partners {
					if _, err := eng.InsertValue("Y", r); err != nil {
						t.Fatal(err)
					}
				}
				if after := exec(); value.Equal(after, before) {
					t.Errorf("indexed=%v joins=%s: %s did not see the insert", indexed, opts.Joins, q)
				}
				exec()
				for _, r := range partners {
					if _, err := eng.DeleteValue("Y", r); err != nil {
						t.Fatal(err)
					}
				}
				if restored := exec(); !value.Equal(restored, before) {
					t.Errorf("indexed=%v joins=%s: %s did not see the delete", indexed, opts.Joins, q)
				}
			}
		}
	}
}

// TestMemoKeyPerConstant runs one shape with two slotted constants,
// alternating, on one engine and one snapshot of Y. Every execution after
// the first hits the one cached plan, whose right input, Select[y.a > ?int]
// over Y, is built and its groups kept in Y's memo: the build's form holds
// the query's own constant, not the value the shape was planned with, so
// each constant must fill and be served its own. Every answer must equal
// naive evaluation, and the memo must hold one build, with its groups, per
// constant.
func TestMemoKeyPerConstant(t *testing.T) {
	eng := xyzEngine(t)
	const shape = `SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.d AND y.a > %d) FROM X x`
	opts := Options{Joins: planner.ImplHash}
	ys, _ := eng.DB().Table("Y")
	_, memo := ys.Snapshot()
	answers := map[int]value.Value{}
	for i := range 6 {
		k := 2 + i%2
		q := fmt.Sprintf(shape, k)
		res, err := eng.Query(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit != (i > 0) {
			t.Errorf("execution %d: CacheHit = %v", i, res.CacheHit)
		}
		sameAsNaive(t, eng, q, res)
		answers[k] = res.Value
	}
	if value.Equal(answers[2], answers[3]) {
		t.Fatal("the two constants answer alike: the test cannot tell their builds apart")
	}
	if _, m := ys.Snapshot(); m != memo {
		t.Fatal("Y's snapshot changed")
	}
	// Count the memo's entries by filling it up to its cap.
	kept := 0
	for ; ; kept++ {
		if _, ok := memo.Store(fmt.Sprintf("probe %d", kept), nil); !ok {
			break
		}
	}
	if n := storage.MemoEntries - kept; n != 4 {
		t.Errorf("Y's memo holds %d entries, want a build and its groups per constant, 4", n)
	}
}

// TestSnapshotMemoConcurrentFillAndWrites fills Y's memo from a cold start
// in two goroutines at once while a third inserts into and deletes from Y:
// every execution must succeed, and once the writer stops an execution must
// equal the naive oracle. Run it under -race.
func TestSnapshotMemoConcurrentFillAndWrites(t *testing.T) {
	eng := xyzEngine(t)
	partners := danglingPartners(t, eng)
	opts := Options{Joins: planner.ImplHash}
	prepared := make([]*Prepared, len(memoQueries))
	for i, q := range memoQueries {
		p, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = p
	}
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	start := make(chan struct{})
	stop := make(chan struct{})
	var readers, writer sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			<-start
			for range rounds {
				for _, p := range prepared {
					if _, err := p.Query(opts); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	writer.Add(1)
	go func() {
		defer writer.Done()
		<-start
		for {
			for _, r := range partners {
				if _, err := eng.InsertValue("Y", r); err != nil {
					t.Error(err)
					return
				}
			}
			for _, r := range partners {
				if _, err := eng.DeleteValue("Y", r); err != nil {
					t.Error(err)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	close(start)
	readers.Wait()
	close(stop)
	writer.Wait()
	for i, p := range prepared {
		res, err := p.Query(opts)
		if err != nil {
			t.Fatal(err)
		}
		sameAsNaive(t, eng, memoQueries[i], res)
	}
}

// closedQueries are statements whose hash builds run over closed subtrees
// rather than bare scans: nested_exec's chain3 (a build over the groupjoin
// of Y with Z) and flat (over a filtered wrap of Y), and BenchmarkBlockShapes'
// from_subqueries shape (over a wrapped FROM subquery on Y).
var closedQueries = []string{
	`SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b AND y.c SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`,
	`SELECT x.b FROM X x, Y y WHERE x.b = y.d AND y.a < 3 AND x.b < 250`,
	`SELECT x FROM (SELECT x FROM X x WHERE x.b < 250) x, (SELECT y FROM Y y WHERE y.a < 3) y WHERE x.b = y.d`,
}

// closedPartners returns Y rows that put the first dangling X row with a
// non-empty x.a into every closedQueries answer, and the Z row they lean
// on: chain3 takes the X row once Y holds one row per element of x.a under
// its key whose c is the Z row's c under the Z row's d; flat and
// from_subqueries once a Y row with a < 3 carries its key on d.
func closedPartners(t *testing.T, eng *Engine) (ys []value.Value, z value.Value) {
	t.Helper()
	zs, _ := eng.DB().Table("Z")
	z = zs.AsSet().Elems()[0]
	c, d := z.MustGet("c").AsInt(), z.MustGet("d").AsInt()
	xs, _ := eng.DB().Table("X")
	for _, x := range xs.Rows() {
		if b := x.MustGet("b").AsInt(); b < 0 && x.MustGet("a").Len() > 0 {
			for _, a := range x.MustGet("a").Elems() {
				ys = append(ys, datagen.YRow(a.AsInt(), b, c, d))
			}
			return append(ys, datagen.YRow(0, 0, c, b)), z
		}
	}
	t.Fatal("no dangling X row")
	return nil, z
}

// TestClosedBuildsAcrossWritesAndRecreate executes the closedQueries as
// prepared statements, twice per step, under auto and under pinned hash
// joins: on the data as generated, after writes to Y only, after writes to Z
// only, and after Z is dropped and created again with different rows at the
// same epoch count. Every result must equal the naive oracle of the moment,
// and each step changes the answers it is built to change.
func TestClosedBuildsAcrossWritesAndRecreate(t *testing.T) {
	for _, opts := range []Options{{}, {Joins: planner.ImplHash}} {
		eng := xyzEngine(t)
		partners, z0 := closedPartners(t, eng)
		prepared := make([]*Prepared, len(closedQueries))
		for i, q := range closedQueries {
			p, err := eng.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			prepared[i] = p
		}
		last := make([]value.Value, len(closedQueries))
		// step runs every statement twice and reports which answers changed.
		step := func(name string, wantChanged ...int) {
			t.Helper()
			for i, p := range prepared {
				var res *Result
				for range 2 {
					var err error
					if res, err = p.Query(opts); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					sameAsNaive(t, eng, closedQueries[i], res)
				}
				if slices.Contains(wantChanged, i) && value.Equal(res.Value, last[i]) {
					t.Errorf("joins=%s, %s: statement %d did not see the change", opts.Joins, name, i)
				}
				last[i] = res.Value
			}
		}
		step("as generated")
		for _, r := range partners {
			if _, err := eng.InsertValue("Y", r); err != nil {
				t.Fatal(err)
			}
		}
		step("writes to Y", 0, 1, 2)
		zs, _ := eng.DB().Table("Z")
		d0 := z0.MustGet("d").AsInt()
		if _, err := eng.Delete("Z", "z", fmt.Sprintf("z.d = %d", d0)); err != nil {
			t.Fatal(err)
		}
		step("writes to Z", 0)

		epoch, rows := zs.Epoch(), append(slices.Clone(zs.AsSet().Elems()), z0)
		if err := eng.DropTable("Z"); err != nil {
			t.Fatal(err)
		}
		_, _, zT := datagen.XYZTypes()
		fresh, err := eng.DB().Create("Z", zT)
		if err != nil {
			t.Fatal(err)
		}
		// Reload the same rows, each time a fresh snapshot, up to the old
		// epoch count.
		for fresh.Epoch() < epoch {
			if err := fresh.Load(rows); err != nil {
				t.Fatal(err)
			}
		}
		if fresh.Epoch() != epoch {
			t.Fatalf("re-created Z at epoch %d, want %d", fresh.Epoch(), epoch)
		}
		step("drop and re-create of Z", 0)
	}
}

// TestClosedBuildsConcurrentFillAndWrites fills the closed builds of the
// closedQueries from a cold start in two goroutines at once while a third
// writes Y and Z: every execution must succeed, and once the writer stops
// an execution must equal the naive oracle. Run it under -race.
func TestClosedBuildsConcurrentFillAndWrites(t *testing.T) {
	eng := xyzEngine(t)
	partners, z0 := closedPartners(t, eng)
	opts := Options{Joins: planner.ImplHash}
	prepared := make([]*Prepared, len(closedQueries))
	for i, q := range closedQueries {
		p, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = p
	}
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	start := make(chan struct{})
	stop := make(chan struct{})
	var readers, writer sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			<-start
			for range rounds {
				for _, p := range prepared {
					if _, err := p.Query(opts); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	writer.Add(1)
	go func() {
		defer writer.Done()
		<-start
		write := func(f func(string, value.Value) (bool, error), table string, rows ...value.Value) bool {
			for _, r := range rows {
				if _, err := f(table, r); err != nil {
					t.Error(err)
					return false
				}
			}
			return true
		}
		for {
			if !write(eng.InsertValue, "Y", partners...) || !write(eng.DeleteValue, "Z", z0) ||
				!write(eng.DeleteValue, "Y", partners...) || !write(eng.InsertValue, "Z", z0) {
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	close(start)
	readers.Wait()
	close(stop)
	writer.Wait()
	for i, p := range prepared {
		res, err := p.Query(opts)
		if err != nil {
			t.Fatal(err)
		}
		sameAsNaive(t, eng, closedQueries[i], res)
	}
}
