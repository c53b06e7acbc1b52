package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// TestDropIndexReplansToScan: after Engine.DropIndex sweeps the table's
// cached plans, the next execution of a query that had been served by the
// index replans onto scans with an unchanged result.
func TestDropIndexReplansToScan(t *testing.T) {
	eng := accessEngine(t)
	const q = `SELECT x FROM X x WHERE x.b = 3`

	if err := eng.CreateIndex("X", "b"); err != nil {
		t.Fatal(err)
	}
	withIdx, err := eng.Query(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if withIdx.Access != planner.AccessIndex {
		t.Fatalf("auto picked access=%s with the index live, want idxscan", withIdx.Access)
	}

	if err := eng.DropIndex("X", "b"); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Query(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Access == planner.AccessIndex {
		t.Error("index access still chosen after the index was dropped")
	}
	if after.CacheHit {
		t.Error("cached index plan served after DropIndex swept the table")
	}
	if value.Key(after.Value) != value.Key(withIdx.Value) {
		t.Error("post-drop result differs from indexed result")
	}

	if err := eng.DropIndex("X", "b"); err == nil {
		t.Error("second DropIndex on the same index must error")
	} else if !strings.Contains(err.Error(), "no index X(b)") {
		t.Errorf("unexpected DropIndex error: %v", err)
	}
	if err := eng.DropIndex("missing", "b"); err == nil {
		t.Error("DropIndex on an unknown table must error")
	}
}

// TestIndexChurnNeverFailsQueries is the DDL-under-load invariant: with one
// goroutine creating and dropping the index in a tight loop while others
// query, no execution may surface an error or a wrong result. Every
// execution fetches the live index its plan names when it compiles, and an
// index gone by then sends the plan through resolution again without
// indexes; the index snapshot fetched stays probeable if the index is
// dropped while the query runs. Run under -race this also checks the index
// registry's locking.
func TestIndexChurnNeverFailsQueries(t *testing.T) {
	eng := accessEngine(t)
	const q = `SELECT x FROM X x WHERE x.b = 3`
	want, err := eng.Query(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKey := value.Key(want.Value)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.CreateIndex("X", "b"); err != nil {
				t.Errorf("CreateIndex: %v", err)
				return
			}
			if err := eng.DropIndex("X", "b"); err != nil {
				t.Errorf("DropIndex: %v", err)
				return
			}
		}
	}()

	var queries sync.WaitGroup
	for g := 0; g < 4; g++ {
		queries.Add(1)
		go func() {
			defer queries.Done()
			for i := 0; i < 150; i++ {
				res, err := eng.Query(q, Options{})
				if err != nil {
					t.Errorf("query under index churn: %v", err)
					return
				}
				if value.Key(res.Value) != wantKey {
					t.Error("result changed under index churn")
					return
				}
			}
		}()
	}
	queries.Wait()
	close(stop)
	churn.Wait()
}

// TestIndexDroppedBehindTheCache: storage.Table.DropIndex unregisters an
// index without sweeping the plan cache, so the next execution is a hit on a
// plan whose resolved tree names the dropped index. It must plan again and
// answer as naive evaluation does, with no error, for an index scan and an
// index join, ad hoc and prepared; and the hits after it must read a
// decision that no longer names the index.
func TestIndexDroppedBehindTheCache(t *testing.T) {
	for _, tc := range []struct {
		name, table, attr, query string
		opts                     Options
	}{
		{"idxscan", "X", "b", `SELECT x FROM X x WHERE x.b = 3`, Options{Access: planner.AccessIndex}},
		{"idxjoin", "Y", "d", `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`, Options{Joins: planner.ImplIndex}},
	} {
		for _, prepared := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/prepared=%v", tc.name, prepared), func(t *testing.T) {
				eng := accessEngine(t)
				if err := eng.CreateIndex(tc.table, tc.attr); err != nil {
					t.Fatal(err)
				}
				run := func() (*Result, error) { return eng.Query(tc.query, tc.opts) }
				if prepared {
					p, err := eng.Prepare(tc.query)
					if err != nil {
						t.Fatal(err)
					}
					run = func() (*Result, error) { return p.Query(tc.opts) }
				}
				first, err := run()
				if err != nil {
					t.Fatal(err)
				}
				explain, err := eng.Explain(tc.query, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(explain, fmt.Sprintf("using %s(%s)", tc.table, tc.attr)) {
					t.Fatalf("the cached plan reads no index:\n%s", explain)
				}
				tab, _ := eng.DB().Table(tc.table)
				if !tab.DropIndex(tc.attr) {
					t.Fatal("DropIndex found no index")
				}
				got, err := run()
				if err != nil {
					t.Fatalf("cached plan over a dropped index: %v", err)
				}
				if !got.CacheHit {
					t.Error("the execution after the drop missed the plan cache")
				}
				// That execution replaced the stale decision: a later hit
				// reads no dropped index, so it resolves nothing again.
				later, err := run()
				if err != nil {
					t.Fatal(err)
				}
				if !later.CacheHit {
					t.Error("the second execution after the drop missed the plan cache")
				}
				explain, err = eng.Explain(tc.query, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if strings.Contains(explain, fmt.Sprintf("using %s(%s)", tc.table, tc.attr)) {
					t.Errorf("a later hit still names the dropped index:\n%s", explain)
				}
				want, err := eng.Query(tc.query, Options{Strategy: core.StrategyNaive})
				if err != nil {
					t.Fatal(err)
				}
				if !value.Equal(got.Value, want.Value) || !value.Equal(first.Value, want.Value) {
					t.Errorf("results differ from naive: before the drop %d rows, after %d, naive %d",
						first.Value.Len(), got.Value.Len(), want.Value.Len())
				}
			})
		}
	}
}
