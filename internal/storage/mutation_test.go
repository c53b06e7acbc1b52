package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"tmdb/internal/value"
)

// TestCreateRejectsNilElem pins the typechecking contract: a nil element
// type would silently disable Insert's typechecking, so Create rejects it
// and NewTable panics.
func TestCreateRejectsNilElem(t *testing.T) {
	db := NewDB()
	if _, err := db.Create("T", nil); err == nil {
		t.Error("Create with nil element type must fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewTable with nil element type must panic")
		}
	}()
	NewTable("T", nil)
}

// TestEpochAdvancesOnEveryMutation pins the staleness signal: a load
// advances the epoch once per row it adds or removes (at least once), inserts
// and deletes once each; reads and no-op mutations leave it alone.
func TestEpochAdvancesOnEveryMutation(t *testing.T) {
	tab := NewTable("T", rowType())
	e0 := tab.Epoch()
	load(t, tab, row(1, "x"), row(2, "y"), row(2, "y"))
	if got := tab.Epoch() - e0; got != 2 {
		t.Errorf("loading 2 rows into an empty table advanced the epoch by %d, want 2", got)
	}
	e1 := tab.Epoch()
	load(t, tab, rowsOf(tab)...)
	if got := tab.Epoch() - e1; got != 1 {
		t.Errorf("reloading the same rows advanced the epoch by %d, want 1", got)
	}
	e2 := tab.Epoch()
	load(t, tab, row(2, "y"), row(3, "z"), row(4, "w"))
	if got := tab.Epoch() - e2; got != 3 {
		t.Errorf("a reload removing 1 row and adding 2 advanced the epoch by %d, want 3", got)
	}
	e3 := tab.Epoch()
	if _, err := tab.Insert(row(5, "v")); err != nil {
		t.Fatal(err)
	}
	if tab.Epoch() != e3+1 {
		t.Error("Insert did not advance the epoch by one")
	}
	e4 := tab.Epoch()
	// Duplicate insert is a set-semantics no-op.
	if added, err := tab.Insert(row(5, "v")); err != nil || added || tab.Epoch() != e4 {
		t.Errorf("duplicate Insert: added=%v err=%v epoch %d -> %d", added, err, e4, tab.Epoch())
	}
	if removed, err := tab.Delete(row(2, "y")); err != nil || !removed {
		t.Fatalf("Delete: removed=%v err=%v", removed, err)
	}
	if tab.Epoch() != e4+1 {
		t.Error("Delete did not advance the epoch by one")
	}
	e5 := tab.Epoch()
	if removed, _ := tab.Delete(row(99, "zzz")); removed || tab.Epoch() != e5 {
		t.Error("Delete of an absent row reported removal or advanced the epoch")
	}
}

// TestMutationMaintainsSetView checks the load→mutate→reload cycle: inserts
// and deletes keep rows sorted, duplicate-free, and the set view in sync, and
// open snapshots are unaffected by later mutations.
func TestMutationMaintainsSetView(t *testing.T) {
	tab := NewTable("T", rowType())
	rows := make([]value.Value, 10)
	for i := range rows {
		rows[i] = row(int64(i), fmt.Sprintf("v%d", i%3))
	}
	load(t, tab, rows...)
	snapshot, _ := tab.Snapshot()

	if added, err := tab.Insert(row(100, "new")); err != nil || !added {
		t.Fatalf("Insert: %v %v", added, err)
	}
	if removed, err := tab.Delete(row(0, "v0")); err != nil || !removed {
		t.Fatalf("Delete: %v %v", removed, err)
	}
	if got := slices.Concat(snapshot...); !slices.EqualFunc(got, rows, value.Equal) {
		t.Errorf("open snapshot changed: %v", got)
	}
	if tab.Len() != 10 {
		t.Errorf("Len = %d, want 10", tab.Len())
	}
	s := tab.AsSet()
	if s.Len() != tab.Len() {
		t.Errorf("set view %d elements vs %d rows", s.Len(), tab.Len())
	}
	// Rows stay sorted and deduplicated — the invariant Insert's binary
	// search relies on.
	rows = rowsOf(tab)
	for i := 1; i < len(rows); i++ {
		if !value.Less(rows[i-1], rows[i]) {
			t.Fatalf("rows out of canonical order at %d", i)
		}
	}
	// A reload holding a duplicate of the inserted row dedupes again.
	load(t, tab, append(slices.Clone(rows), row(100, "new"))...)
	if tab.Len() != 10 {
		t.Errorf("reload Len = %d, want 10 (set semantics)", tab.Len())
	}
	n, err := tab.DeleteWhere(func(v value.Value) bool {
		b, _ := v.Get("b")
		return value.Equal(b, value.Str("v1"))
	})
	if err != nil || n != 3 {
		t.Errorf("DeleteWhere removed %d (err %v), want 3", n, err)
	}
	if tab.Len() != 7 {
		t.Errorf("after DeleteWhere Len = %d", tab.Len())
	}
}

// TestIndexMaintainedAcrossMutations checks the persistent index registry:
// built at CreateIndex, incrementally maintained by inserts and deletes,
// rebuilt by Load, with O(1) Keys/Len counters in sync throughout.
func TestIndexMaintainedAcrossMutations(t *testing.T) {
	tab := NewTable("T", rowType())
	if err := tab.CreateIndex("nope"); err == nil {
		t.Error("indexing an unknown attribute must fail")
	}
	if err := tab.CreateIndex("b"); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("b"); err != nil {
		t.Errorf("re-creating an index must be a no-op, got %v", err)
	}
	rows := make([]value.Value, 12)
	for i := range rows {
		rows[i] = row(int64(i), fmt.Sprintf("k%d", i%4))
	}
	load(t, tab, rows...)
	ix, ok := tab.IndexOn([]string{"b"})
	if !ok {
		t.Fatal("the table must serve the registered index")
	}
	if ix.Keys() != 4 || ix.Len() != 12 {
		t.Fatalf("after load: Keys=%d Len=%d, want 4/12", ix.Keys(), ix.Len())
	}
	if got := ix.Lookup(value.Str("k1")); len(got) != 3 {
		t.Errorf("Lookup(k1) = %d rows, want 3", len(got))
	}

	if _, err := tab.Insert(row(100, "k1")); err != nil {
		t.Fatal(err)
	}
	if got := ix.Lookup(value.Str("k1")); len(got) != 4 {
		t.Errorf("after insert Lookup(k1) = %d rows, want 4", len(got))
	}
	if _, err := tab.Insert(row(101, "brand-new")); err != nil {
		t.Fatal(err)
	}
	if ix.Keys() != 5 || ix.Len() != 14 {
		t.Errorf("after inserts: Keys=%d Len=%d, want 5/14", ix.Keys(), ix.Len())
	}
	if removed, err := tab.Delete(row(101, "brand-new")); err != nil || !removed {
		t.Fatal("delete failed")
	}
	if ix.Keys() != 4 || ix.Len() != 13 {
		t.Errorf("after delete: Keys=%d Len=%d, want 4/13", ix.Keys(), ix.Len())
	}
	if ix.Contains(value.Str("brand-new")) {
		t.Error("emptied bucket must vanish from the index")
	}

	// A reload rebuilds the index from scratch.
	load(t, tab, rowsOf(tab)...)
	ix2, ok := tab.IndexOn([]string{"b"})
	if !ok || ix2 == ix || ix2.Len() != tab.Len() {
		t.Fatalf("reload rebuild: ok=%v Len=%d want %d", ok, ix2.Len(), tab.Len())
	}

	if got := tab.Indexes(); len(got) != 1 || len(got[0]) != 1 || got[0][0] != "b" {
		t.Errorf("Indexes = %v", got)
	}
	if err := (&DB{tables: map[string]*Table{"T": tab}}).CreateIndex("GHOST", "b"); err == nil {
		t.Error("DB.CreateIndex on an unknown table must fail")
	}
}

// TestConcurrentReadersAndWriter races scans, set views, and index lookups
// against mutations — the copy-on-write contract concurrent queries rely on.
// Run with -race.
func TestConcurrentReadersAndWriter(t *testing.T) {
	tab := NewTable("T", rowType())
	if err := tab.CreateIndex("b"); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Value, 200)
	for i := range rows {
		rows[i] = row(int64(i), fmt.Sprintf("k%d", i%10))
	}
	load(t, tab, rows...)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, r := range tab.Rows() {
					_ = r
				}
				_ = tab.AsSet().Len()
				if ix, ok := tab.IndexOn([]string{"b"}); ok {
					_ = ix.Lookup(value.Str("k3"))
					_ = ix.Keys() + ix.Len()
				}
				_ = tab.Epoch()
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if _, err := tab.Insert(row(int64(1000+i), fmt.Sprintf("k%d", i%10))); err != nil {
			t.Error(err)
			break
		}
		if i%3 == 0 {
			if _, err := tab.Delete(row(int64(1000+i), fmt.Sprintf("k%d", i%10))); err != nil {
				t.Error(err)
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	ix, _ := tab.IndexOn([]string{"b"})
	if ix.Len() != tab.Len() {
		t.Errorf("index rows %d out of sync with table %d", ix.Len(), tab.Len())
	}
}

// TestSetViewMatchesRows: the set view is the loaded slice or is
// materialized from the copy-on-write chunks, so after any history of inserts, single and batched deletes (victims in
// canonical order, shuffled, duplicated, absent) and reloads it must
// equal the canonicalization of the rows, and the index must follow.
func TestSetViewMatchesRows(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable("T", rowType())
		if err := tab.CreateIndex("b"); err != nil {
			t.Fatal(err)
		}
		live := map[int64]bool{}
		key := func(a int64) value.Value { return row(a, fmt.Sprintf("k%d", a%7)) }
		for step := 0; step < 300; step++ {
			a := rng.Int63n(60)
			switch op := rng.Intn(10); {
			case op < 5:
				added, err := tab.Insert(key(a))
				if err != nil || added == live[a] {
					t.Fatalf("seed %d step %d: Insert(%d) added=%v err=%v, present=%v", seed, step, a, added, err, live[a])
				}
				live[a] = true
			case op < 7:
				removed, err := tab.Delete(key(a))
				if err != nil || removed != live[a] {
					t.Fatalf("seed %d step %d: Delete(%d) removed=%v err=%v, present=%v", seed, step, a, removed, err, live[a])
				}
				delete(live, a)
			case op < 9:
				var victims []value.Value
				want := 0
				for _, r := range tab.Rows() {
					if rng.Intn(4) == 0 {
						victims = append(victims, r)
						want++
					}
				}
				victims = append(victims, row(-1, "absent"))
				if op == 8 && len(victims) > 1 {
					victims = append(victims, victims[0])
					rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
				}
				n, err := tab.DeleteRows(victims)
				if err != nil || n != want {
					t.Fatalf("seed %d step %d: DeleteRows removed %d (err %v), want %d", seed, step, n, err, want)
				}
				for _, v := range victims {
					delete(live, v.MustGet("a").AsInt())
				}
			default:
				load(t, tab, append(rowsOf(tab), key(a))...)
				live[a] = true
			}
			rows := rowsOf(tab)
			if len(rows) != len(live) || !value.Equal(tab.AsSet(), value.SetOf(rows...)) {
				t.Fatalf("seed %d step %d: %d rows, %d live, set view equal to SetOf(rows)=%v",
					seed, step, len(rows), len(live), value.Equal(tab.AsSet(), value.SetOf(rows...)))
			}
			if ix, _ := tab.IndexOn([]string{"b"}); ix.Len() != len(rows) {
				t.Fatalf("seed %d step %d: index holds %d rows, table %d", seed, step, ix.Len(), len(rows))
			}
		}
	}
}

// TestSetViewSnapshotStableUnderWriter: a set view taken before a write is
// the same value after it — the writer copies, never edits, the chunks the
// view shares. Run with -race: readers walk their snapshots while the writer
// mutates.
func TestSetViewSnapshotStableUnderWriter(t *testing.T) {
	tab := NewTable("T", rowType())
	rows := make([]value.Value, 500)
	for i := range rows {
		rows[i] = row(int64(2*i), "v")
	}
	load(t, tab, rows...)

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := tab.AsSet()
				want := value.Key(snap)
				runtime.Gosched()
				if value.Key(snap) != want || !value.Equal(snap, value.SetOf(snap.Elems()...)) {
					t.Error("a set view changed under its reader")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := tab.Insert(row(int64(2*i+1), "w")); err != nil {
			t.Error(err)
		}
		if _, err := tab.DeleteRows([]value.Value{row(int64(2*i), "v"), row(int64(2*i+1), "w")}); err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
}

// DeleteWhere removes every tuple of the table for which pred returns
// true, returning the number removed. Mutation bookkeeping (epoch, indexes)
// is paid once for the whole batch. pred runs under the table's lock: it must
// be a pure function of the row and must not read this table (or any table,
// transitively) through the database.
func (t *Table) DeleteWhere(pred func(value.Value) bool) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var victims []pos
	for c, ch := range t.snap.rows.chunks {
		for i, r := range ch {
			if pred(r) {
				victims = append(victims, pos{c, i})
			}
		}
	}
	t.removeRowsLocked(victims)
	return len(victims), nil
}
