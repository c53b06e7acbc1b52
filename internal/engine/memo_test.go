package engine

import (
	"sync"
	"testing"

	"tmdb/internal/datagen"
	"tmdb/internal/planner"
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
