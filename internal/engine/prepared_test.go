package engine

import (
	"strings"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

func TestPreparedReusesPlanCache(t *testing.T) {
	eng := xyzEngine(t)
	stmt, err := eng.Prepare(`SELECT y.a FROM Y y WHERE y.b = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.Tables(); len(got) != 1 || got[0] != "Y" {
		t.Fatalf("Tables() = %v, want [Y]", got)
	}
	first, err := stmt.Query(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first execution reported a plan-cache hit")
	}
	second, err := stmt.Query(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second execution missed the plan cache")
	}
	if !value.Equal(first.Value, second.Value) {
		t.Fatalf("repeated execution changed the result: %s vs %s", first.Value, second.Value)
	}
	// The same bound query through Engine.Query shares the cache entries.
	viaQuery, err := eng.Query(`SELECT y.a FROM Y y WHERE y.b = 3`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !viaQuery.CacheHit {
		t.Fatal("Engine.Query did not hit the entry planned through the prepared statement")
	}
}

// TestPreparedReplansAfterMutation: a prepared statement keeps hitting its
// cached plan across a write (and sees the new row), replans once after
// Analyze moved the table to a new statistics generation, then hits again.
func TestPreparedReplansAfterMutation(t *testing.T) {
	eng := xyzEngine(t)
	const q = `SELECT y.a FROM Y y WHERE y.b = 777`
	stmt, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	before, err := stmt.Query(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if before.Value.Len() != 0 {
		t.Fatalf("expected empty result before the insert, got %s", before.Value)
	}
	added, err := eng.InsertValue("Y", datagen.YRow(42, 777, 5, 9))
	if err != nil || !added {
		t.Fatalf("InsertValue: added=%v err=%v", added, err)
	}
	after, err := stmt.Query(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !after.CacheHit {
		t.Fatal("execution after one Y write replanned (the write is within the drift bound)")
	}
	if after.Value.Len() != 1 {
		t.Fatalf("expected the inserted row to be visible, got %s", after.Value)
	}
	sameAsNaive(t, eng, q, after)

	eng.Analyze()
	for i, wantHit := range []bool{false, true} {
		res, err := stmt.Query(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit != wantHit {
			t.Fatalf("execution %d after Analyze: CacheHit=%v, want %v", i, res.CacheHit, wantHit)
		}
		sameAsNaive(t, eng, q, res)
	}
	// A query over an untouched table keeps hitting its cached plan.
	if _, err := eng.Query(`SELECT z.c FROM Z z WHERE z.d = 1`, Options{}); err != nil {
		t.Fatal(err)
	}
	eng.Analyze()
	zres, err := eng.Query(`SELECT z.c FROM Z z WHERE z.d = 1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !zres.CacheHit {
		t.Fatal("mutating and analyzing Y cost a cached plan over Z")
	}
}

// TestInfeasibleJoinSameErrorOnQueryAndExplain locks in the bugfix: a pinned
// join family the plan cannot satisfy (hash without an equi-key) must fail at
// plan time with the same error text on every path — Query, Explain, and
// their prepared-statement twins.
func TestInfeasibleJoinSameErrorOnQueryAndExplain(t *testing.T) {
	cat, db := datagen.Table1()
	eng := New(cat, db)
	const q = `SELECT (e = x.e, a = y.a) FROM X x, Y y WHERE x.d < y.b`
	opts := Options{Strategy: core.StrategyNestJoin, Joins: planner.ImplHash}

	_, qerr := eng.Query(q, opts)
	if qerr == nil {
		t.Fatal("Query compiled a hash join without an equi-key")
	}
	_, eerr := eng.Explain(q, opts)
	if eerr == nil {
		t.Fatal("Explain compiled a hash join without an equi-key")
	}
	if qerr.Error() != eerr.Error() {
		t.Fatalf("Query and Explain disagree on the infeasibility error:\n  query:   %s\n  explain: %s", qerr, eerr)
	}
	if !strings.Contains(qerr.Error(), "join requested but") || !strings.Contains(qerr.Error(), "no equi-key") {
		t.Fatalf("unexpected error shape: %s", qerr)
	}

	stmt, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	_, perr := stmt.Query(opts)
	if perr == nil || perr.Error() != qerr.Error() {
		t.Fatalf("Prepared.Query error %v, want %v", perr, qerr)
	}
	_, xerr := stmt.Explain(opts)
	if xerr == nil || xerr.Error() != qerr.Error() {
		t.Fatalf("Prepared.Explain error %v, want %v", xerr, qerr)
	}
}
