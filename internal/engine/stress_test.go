package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// TestEngineConcurrentStress hammers one Engine from many goroutines mixing
// every public entry point — Query (auto and fixed, cost-based and hash),
// a shared Prepared statement, Insert/InsertValue, Delete/DeleteValue,
// CreateIndex, Analyze, Explain, ClearPlanCache, SetPlanCacheCapacity, and
// PlanCacheStats — the load shape the query server puts on the engine. Run
// under -race it is the concurrency-bug sweep: any data race or torn read in
// the plan cache, statistics catalog, storage, or index maintenance fails
// the test. A final auto-vs-naive comparison asserts the engine still
// answers correctly after the storm.
func TestEngineConcurrentStress(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 30, NY: 90, NZ: 60, Keys: 8, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1,
	})
	eng := New(cat, db)

	queries := []string{
		`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
		`SELECT y.a FROM Y y WHERE y.b = 3`,
		`SELECT (xb = x.b, zc = z.c) FROM X x, Z z WHERE x.b = z.d`,
		`SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`,
	}
	stmt, err := eng.Prepare(`SELECT y.a FROM Y y WHERE y.d = 2`)
	if err != nil {
		t.Fatal(err)
	}

	iters := 120
	if testing.Short() {
		iters = 30
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(gid)))
			fail := func(op string, err error) bool {
				if err != nil {
					errs <- fmt.Errorf("worker %d %s: %w", gid, op, err)
					return true
				}
				return false
			}
			for i := 0; i < iters; i++ {
				switch r.Intn(10) {
				case 0, 1, 2: // cost-based query
					q := queries[r.Intn(len(queries))]
					if _, err := eng.Query(q, Options{}); fail("query", err) {
						return
					}
				case 3: // fixed strategy, hash execution
					opts := Options{Strategy: core.StrategyNestJoin, Joins: planner.ImplHash}
					if _, err := eng.Query(queries[0], opts); fail("hash query", err) {
						return
					}
				case 4: // shared prepared statement
					if _, err := stmt.Query(Options{}); fail("prepared", err) {
						return
					}
				case 5: // insert/delete a worker-private row (set semantics)
					row := datagen.YRow(int64(gid), int64(1000+gid), 5, int64(2000+gid))
					if _, err := eng.InsertValue("Y", row); fail("insert", err) {
						return
					}
					if _, err := eng.DeleteValue("Y", row); fail("delete", err) {
						return
					}
				case 6: // predicate delete of rows nobody inserts (exercises the path)
					if _, err := eng.Delete("Y", "y", fmt.Sprintf("y.b = %d", 5000+gid)); fail("delete where", err) {
						return
					}
				case 7: // index creation (duplicate creates are no-ops)
					tgt := [][]string{{"d"}, {"b", "d"}}[r.Intn(2)]
					if err := eng.CreateIndex("Y", tgt...); fail("create index", err) {
						return
					}
				case 8: // statistics + explain
					eng.Analyze()
					if _, err := eng.Explain(queries[1], Options{}); fail("explain", err) {
						return
					}
				case 9: // cache churn
					switch r.Intn(3) {
					case 0:
						eng.ClearPlanCache()
					case 1:
						eng.SetPlanCacheCapacity(4 + r.Intn(64))
					default:
						_ = eng.PlanCacheStats()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The engine must still answer correctly over the final state.
	for _, q := range queries {
		got, err := eng.Query(q, Options{})
		if err != nil {
			t.Fatalf("post-stress query: %v", err)
		}
		want, err := eng.Query(q, Options{Strategy: core.StrategyNaive})
		if err != nil {
			t.Fatalf("post-stress naive oracle: %v", err)
		}
		if !value.Equal(got.Value, want.Value) {
			t.Fatalf("post-stress divergence on %q:\n  auto:  %s\n  naive: %s", q, got.Value, want.Value)
		}
	}
}

// TestPreparedReexecutionAfterDrop pins the typed-error contract for
// prepared statements outliving their tables: re-executing after DropTable —
// including from many goroutines racing the drop itself — must return a
// *TableDroppedError (errors.Is ErrTableDropped), never a panic or a nil-map
// failure, and the engine must keep serving queries over surviving tables.
func TestPreparedReexecutionAfterDrop(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 30, NY: 90, NZ: 60, Keys: 8, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 2,
	})
	eng := New(cat, db)
	stmt, err := eng.Prepare(`SELECT y.a FROM Y y WHERE y.d = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(Options{}); err != nil {
		t.Fatalf("pre-drop execution: %v", err)
	}

	const workers = 8
	var wg sync.WaitGroup
	bad := make(chan error, workers)
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				_, err := stmt.Query(Options{})
				if err != nil && !errors.Is(err, ErrTableDropped) {
					bad <- fmt.Errorf("re-execution returned untyped error: %w", err)
					return
				}
			}
		}()
	}
	close(start)
	if err := eng.DropTable("Y"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(bad)
	for err := range bad {
		t.Error(err)
	}

	// Settled post-drop re-execution is deterministic: always the typed error.
	_, err = stmt.Query(Options{})
	var td *TableDroppedError
	if !errors.As(err, &td) || td.Table != "Y" {
		t.Fatalf("want *TableDroppedError{Y}, got %v", err)
	}
	if !errors.Is(err, ErrTableDropped) {
		t.Fatalf("typed drop error must match ErrTableDropped: %v", err)
	}
	if _, err := stmt.Explain(Options{}); !errors.Is(err, ErrTableDropped) {
		t.Fatalf("explain after drop: want ErrTableDropped, got %v", err)
	}

	// Surviving tables keep working.
	if _, err := eng.Query(`SELECT x.b FROM X x WHERE x.b = 3`, Options{}); err != nil {
		t.Fatalf("query over surviving table after drop: %v", err)
	}
	if err := eng.DropTable("Y"); err == nil {
		t.Fatal("double drop must error")
	}
}

// TestStorageLoadRacesReaderSnapshot: a reader iterating a Rows snapshot
// taken before a Load must never observe the load's sort and dedup tearing
// its view, since Load sorts a copy. Run under -race; a load that reordered
// the shared backing array in place would race the reader.
func TestStorageLoadRacesReaderSnapshot(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 50, NY: 100, NZ: 0, Keys: 8, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 3,
	})
	eng := New(cat, db)
	tab, _ := db.Table("Y")

	cycles := 50
	if testing.Short() {
		cycles = 15
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rows := tab.Rows()
			// Iterate the snapshot; an in-place sort would race this.
			for _, r := range rows {
				_ = value.Key(r)
			}
			_, _ = eng.Query(`SELECT y.a FROM Y y WHERE y.b = 3`, Options{})
		}
	}()
	for i := 0; i < cycles; i++ {
		rows := append(slices.Clone(tab.AsSet().Elems()), datagen.YRow(int64(i), int64(i%7), 1, int64(i%5)))
		if err := tab.Load(rows); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestShapeSharedConcurrently runs prepared statements and ad-hoc texts that
// share shapes but not constants from 8 goroutines on one engine: every
// execution compiles the one cached tree per shape with its own constants.
// Under -race it is the sweep for the shared entry and tree; every result
// must match naive.
func TestShapeSharedConcurrently(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 30, NY: 90, NZ: 60, Keys: 8, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1,
	})
	eng := New(cat, db)
	if err := eng.CreateIndex("X", "b"); err != nil {
		t.Fatal(err)
	}
	templates := []string{
		`SELECT x FROM X x WHERE x.b = %d`,
		`SELECT y.a FROM Y y WHERE y.d < %d AND y.b > 2`,
		`SELECT x FROM X x WHERE x.b = %d AND x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
	}
	const keys = 8
	type stmt struct {
		text string
		p    *Prepared
		want value.Value
	}
	var stmts []stmt
	for _, tmpl := range templates {
		for k := 0; k < keys; k++ {
			text := fmt.Sprintf(tmpl, k)
			p, err := eng.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.Query(text, Options{Strategy: core.StrategyNaive})
			if err != nil {
				t.Fatal(err)
			}
			stmts = append(stmts, stmt{text, p, want.Value})
		}
	}
	iters := 200
	if testing.Short() {
		iters = 50
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(gid)))
			for i := 0; i < iters; i++ {
				s := stmts[r.Intn(len(stmts))]
				var res *Result
				var err error
				if r.Intn(2) == 0 {
					res, err = s.p.Query(Options{})
				} else {
					res, err = eng.Query(s.text, Options{})
				}
				if err == nil && !value.Equal(res.Value, s.want) {
					err = fmt.Errorf("%s: got %s, naive %s", s.text, res.Value, s.want)
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", gid, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// One auto entry per shape, next to the naive oracle's.
	if st := eng.PlanCacheStats(); st.Entries != 2*len(templates) {
		t.Errorf("entries = %d, want %d", st.Entries, 2*len(templates))
	}
}
