package stats

import (
	"sync"
	"testing"

	"tmdb/internal/storage"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

func kvType() *types.Type {
	return types.Tuple(types.F("k", types.Int), types.F("v", types.Int))
}

func kvRow(k, v int64) value.Value {
	return value.TupleOf(value.F("k", value.Int(k)), value.F("v", value.Int(v)))
}

// TestPerTableStaleness pins the bounded-staleness contract: a mutated table
// keeps its statistics generation — and the dangling fractions and index
// depth profiles tagged with it — while it drifts within a tenth of its
// cardinality, recollects past that or on Refresh, and the other tables'
// statistics objects are untouched throughout (same pointers — no rescan, no
// discard).
func TestPerTableStaleness(t *testing.T) {
	db := storage.NewDB()
	tt := db.MustCreate("T", kvType())
	uu := db.MustCreate("U", kvType())
	for i := 0; i < 20; i++ {
		tt.MustInsert(kvRow(int64(i), int64(i%5)))
		uu.MustInsert(kvRow(int64(i%7), int64(i)))
	}
	db.SealAll()
	if err := tt.CreateIndex("v"); err != nil {
		t.Fatal(err)
	}
	depth := func(c *Catalog) int {
		prof, ok := c.IndexDepth("T", []string{"v"}, 1)
		if !ok {
			t.Fatal("no depth profile for T(v)")
		}
		return prof.Rows
	}

	c := Analyze(db)
	tBefore, uBefore := c.Table("T"), c.Table("U")
	if tBefore.Card != 20 {
		t.Fatalf("T Card = %d", tBefore.Card)
	}
	dBefore, pBefore := c.DanglingFrac("T", "k", "U", "k"), depth(c)

	// Two writes to a 20-row table are within the bound: nothing moves.
	for i := int64(0); i < 2; i++ {
		if _, err := tt.InsertSealed(kvRow(1000+i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Table("T") != tBefore || c.DanglingFrac("T", "k", "U", "k") != dBefore || depth(c) != pBefore {
		t.Error("writes within the drift bound moved T's statistics generation")
	}

	// Refresh forces exactness; everything tagged with the generation follows.
	tExact := c.Refresh("T")
	if tExact == tBefore || tExact.Card != 22 {
		t.Errorf("Refresh: same generation=%v, Card=%d, want a new one with 22", tExact == tBefore, tExact.Card)
	}
	if c.Refresh("T") != tExact {
		t.Error("Refresh rescanned a table that has not mutated since")
	}
	// Rows 1000 and 1001 have no U partner, so the fraction strictly grows.
	if dAfter := c.DanglingFrac("T", "k", "U", "k"); dAfter <= dBefore {
		t.Errorf("dangling fraction not refreshed: before %v, after %v", dBefore, dAfter)
	}
	if got := depth(c); got != 22 {
		t.Errorf("index depth profile not refreshed: %d rows, want 22", got)
	}

	// The third write since collection is past the bound (3·10 > 22).
	for i := int64(0); i < 3; i++ {
		if _, err := tt.InsertSealed(kvRow(2000+i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Table("T"); got == tExact || got.Card != 25 {
		t.Errorf("past the bound: same generation=%v, Card=%d, want a new one with 25", got == tExact, got.Card)
	}
	if c.Table("U") != uBefore {
		t.Error("unmutated table's statistics were recollected (should be untouched)")
	}

	// MarkStale forces recollection without a mutation.
	c.MarkStale("U")
	if c.Table("U") == uBefore {
		t.Error("MarkStale did not force recollection")
	}
}

// TestDriftBoundAmortisesRecollection: N single-row writes to an n-row table
// cause at most ⌈10N/n⌉+1 recollections with |Card − Len| ≤ n/10 throughout,
// while a tiny table refreshes on every write and a bulk load trips the
// bound at once.
func TestDriftBoundAmortisesRecollection(t *testing.T) {
	const n, writes = 400, 1000
	db := storage.NewDB()
	big, tiny := db.MustCreate("BIG", kvType()), db.MustCreate("TINY", kvType())
	for i := 0; i < n; i++ {
		big.MustInsert(kvRow(int64(i), int64(i%9)))
	}
	for i := 0; i < 5; i++ {
		tiny.MustInsert(kvRow(int64(i), 0))
	}
	db.SealAll()
	c := Analyze(db)

	last, recollections := c.Table("BIG"), 0
	for i := 0; i < writes; i++ {
		// Two inserts, one delete: the table grows while it churns.
		var err error
		if i%3 == 2 {
			_, err = big.Delete(kvRow(int64(n+i-1), 1))
		} else {
			_, err = big.InsertSealed(kvRow(int64(n+i), 1))
		}
		if err != nil {
			t.Fatal(err)
		}
		s := c.Table("BIG")
		if s != last {
			last, recollections = s, recollections+1
		}
		if d := s.Card - big.Len(); d*10 > s.Card || -d*10 > s.Card {
			t.Fatalf("write %d: Card=%d but Len=%d", i, s.Card, big.Len())
		}
	}
	if limit := (10*writes+n-1)/n + 1; recollections > limit || recollections == 0 {
		t.Errorf("%d writes to a %d-row table: %d recollections, want 1..%d", writes, n, recollections, limit)
	}

	for i := int64(0); i < 3; i++ {
		before := c.Table("TINY")
		if _, err := tiny.InsertSealed(kvRow(100+i, 0)); err != nil {
			t.Fatal(err)
		}
		if after := c.Table("TINY"); after == before || after.Card != tiny.Len() {
			t.Fatalf("5-row table not refreshed by write %d", i)
		}
	}

	before := c.Table("BIG")
	big.Unseal()
	for i := 0; i < n; i++ {
		big.MustInsert(kvRow(int64(10_000+i), 2))
	}
	big.Seal()
	if after := c.Table("BIG"); after == before || after.Card != big.Len() {
		t.Error("a bulk load did not trip the drift bound")
	}
}

// TestGenerationSingleFlight: concurrent lookups of a table that needs a new
// statistics generation share one scan (they all get the same object), and a
// lookup of another table is served meanwhile. Run under -race.
func TestGenerationSingleFlight(t *testing.T) {
	db := storage.NewDB()
	tt, uu := db.MustCreate("T", kvType()), db.MustCreate("U", kvType())
	for i := 0; i < 2000; i++ {
		tt.MustInsert(kvRow(int64(i), int64(i%5)))
		uu.MustInsert(kvRow(int64(i%7), int64(i)))
	}
	db.SealAll()
	c := Analyze(db)
	for round := int64(0); round < 20; round++ {
		if _, err := tt.InsertSealed(kvRow(10_000+round, 1)); err != nil {
			t.Fatal(err)
		}
		uGen := c.Table("U")
		got := make([]*TableStats, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if g%2 == 0 {
					got[g] = c.Refresh("T")
				} else {
					got[g] = c.Table("T")
					c.DanglingFrac("T", "k", "U", "k")
				}
				if c.Table("U") != uGen {
					t.Error("U recollected while T was")
				}
			}(g)
		}
		wg.Wait()
		exact := got[0]
		if exact.Card != tt.Len() {
			t.Fatalf("round %d: Refresh returned Card=%d, Len=%d", round, exact.Card, tt.Len())
		}
		for g := 2; g < len(got); g += 2 {
			if got[g] != exact {
				t.Fatalf("round %d: concurrent Refresh calls scanned T more than once", round)
			}
		}
		if c.Table("T") != exact {
			t.Fatalf("round %d: the published generation is not the refreshed one", round)
		}
	}
}

// TestIndexKeys pins the planner-facing index oracle: present only for live
// registered indexes, with the O(1) key counter.
func TestIndexKeys(t *testing.T) {
	db := storage.NewDB()
	tt := db.MustCreate("T", kvType())
	for i := 0; i < 30; i++ {
		tt.MustInsert(kvRow(int64(i), int64(i%6)))
	}
	if err := tt.CreateIndex("v"); err != nil {
		t.Fatal(err)
	}
	c := New(db)
	if _, ok := c.IndexKeys("T", "v"); ok {
		t.Error("unsealed table must not report a live index")
	}
	db.SealAll()
	keys, ok := c.IndexKeys("T", "v")
	if !ok || keys != 6 {
		t.Errorf("IndexKeys = %d,%v want 6,true", keys, ok)
	}
	if _, ok := c.IndexKeys("T", "k"); ok {
		t.Error("unindexed attribute must not report an index")
	}
	if _, ok := c.IndexKeys("GHOST", "v"); ok {
		t.Error("unknown table must not report an index")
	}
	if _, ok := New(nil).IndexKeys("T", "v"); ok {
		t.Error("nil-db catalog must not report indexes")
	}
}
