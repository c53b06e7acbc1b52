package storage

import (
	"fmt"
	"math/rand"
	"runtime"
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

// TestEpochAdvancesOnEveryMutation pins the staleness signal: loads, seals,
// unseals, sealed inserts, and deletes each advance the epoch; reads and
// no-op mutations do not.
func TestEpochAdvancesOnEveryMutation(t *testing.T) {
	tab := NewTable("T", rowType())
	e0 := tab.Epoch()
	tab.MustInsert(row(1, "x"))
	if tab.Epoch() == e0 {
		t.Error("Insert did not advance the epoch")
	}
	e1 := tab.Epoch()
	tab.Seal()
	if tab.Epoch() == e1 {
		t.Error("Seal did not advance the epoch")
	}
	e2 := tab.Epoch()
	tab.Seal() // idempotent: no change, no epoch bump
	if tab.Epoch() != e2 {
		t.Error("idempotent Seal advanced the epoch")
	}
	if _, err := tab.InsertSealed(row(2, "y")); err != nil {
		t.Fatal(err)
	}
	if tab.Epoch() == e2 {
		t.Error("InsertSealed did not advance the epoch")
	}
	e3 := tab.Epoch()
	// Duplicate insert is a set-semantics no-op, but still reports a fresh
	// epoch observation consistent with "nothing changed".
	if added, err := tab.InsertSealed(row(2, "y")); err != nil || added {
		t.Errorf("duplicate InsertSealed: added=%v err=%v", added, err)
	}
	if removed, err := tab.Delete(row(1, "x")); err != nil || !removed {
		t.Fatalf("Delete: removed=%v err=%v", removed, err)
	}
	if tab.Epoch() == e3 {
		t.Error("Delete did not advance the epoch")
	}
	e4 := tab.Epoch()
	if removed, _ := tab.Delete(row(99, "zzz")); removed {
		t.Error("Delete of an absent row reported removal")
	}
	tab.Unseal()
	if tab.Epoch() == e4 {
		t.Error("Unseal did not advance the epoch")
	}
}

// TestSealedMutationMaintainsSetView checks the seal→mutate→reseal cycle:
// sealed inserts and deletes keep rows sorted, duplicate-free, and the set
// view in sync, and open snapshots are unaffected by later mutations.
func TestSealedMutationMaintainsSetView(t *testing.T) {
	tab := NewTable("T", rowType())
	for i := 0; i < 10; i++ {
		tab.MustInsert(row(int64(i), fmt.Sprintf("v%d", i%3)))
	}
	tab.Seal()
	snapshot := tab.Rows()

	if added, err := tab.InsertSealed(row(100, "new")); err != nil || !added {
		t.Fatalf("InsertSealed: %v %v", added, err)
	}
	if removed, err := tab.Delete(row(0, "v0")); err != nil || !removed {
		t.Fatalf("Delete: %v %v", removed, err)
	}
	if len(snapshot) != 10 {
		t.Errorf("open snapshot changed length: %d", len(snapshot))
	}
	if tab.Len() != 10 {
		t.Errorf("Len = %d, want 10", tab.Len())
	}
	s := tab.AsSet()
	if s.Len() != tab.Len() {
		t.Errorf("set view %d elements vs %d rows", s.Len(), tab.Len())
	}
	// Rows stay sorted and deduplicated — the invariant InsertSealed's
	// binary search relies on.
	rows := tab.Rows()
	for i := 1; i < len(rows); i++ {
		if !value.Less(rows[i-1], rows[i]) {
			t.Fatalf("rows out of canonical order at %d", i)
		}
	}
	// A full unseal → bulk load → reseal cycle dedupes again.
	tab.Unseal()
	tab.MustInsert(row(100, "new")) // duplicate of the sealed insert
	tab.Seal()
	if tab.Len() != 10 {
		t.Errorf("reseal Len = %d, want 10 (set semantics)", tab.Len())
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
// built at Seal, incrementally maintained by sealed mutations, rebuilt on
// reseal, stale (not served) while unsealed, with O(1) Keys/Len counters in
// sync throughout.
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
	for i := 0; i < 12; i++ {
		tab.MustInsert(row(int64(i), fmt.Sprintf("k%d", i%4)))
	}
	if _, ok := tab.Index("b"); ok {
		t.Error("unsealed table must not serve an index")
	}
	tab.Seal()
	ix, ok := tab.Index("b")
	if !ok {
		t.Fatal("sealed table must serve the registered index")
	}
	if ix.Keys() != 4 || ix.Len() != 12 {
		t.Fatalf("after seal: Keys=%d Len=%d, want 4/12", ix.Keys(), ix.Len())
	}
	if got := ix.Lookup(value.Str("k1")); len(got) != 3 {
		t.Errorf("Lookup(k1) = %d rows, want 3", len(got))
	}

	if _, err := tab.InsertSealed(row(100, "k1")); err != nil {
		t.Fatal(err)
	}
	if got := ix.Lookup(value.Str("k1")); len(got) != 4 {
		t.Errorf("after insert Lookup(k1) = %d rows, want 4", len(got))
	}
	if _, err := tab.InsertSealed(row(101, "brand-new")); err != nil {
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

	// Unseal: the index goes dark; reseal rebuilds it from scratch.
	tab.Unseal()
	if _, ok := tab.Index("b"); ok {
		t.Error("unsealed table served a stale index")
	}
	tab.Seal()
	ix2, ok := tab.Index("b")
	if !ok || ix2.Len() != tab.Len() {
		t.Fatalf("reseal rebuild: ok=%v Len=%d want %d", ok, ix2.Len(), tab.Len())
	}

	if got := tab.IndexAttrs(); len(got) != 1 || got[0] != "b" {
		t.Errorf("IndexAttrs = %v", got)
	}
	if err := (&DB{tables: map[string]*Table{"T": tab}}).CreateIndex("GHOST", "b"); err == nil {
		t.Error("DB.CreateIndex on an unknown table must fail")
	}
}

// TestConcurrentReadersAndWriter races scans, set views, and index lookups
// against sealed mutations — the copy-on-write contract the parallel join
// workers rely on. Run with -race.
func TestConcurrentReadersAndWriter(t *testing.T) {
	tab := NewTable("T", rowType())
	if err := tab.CreateIndex("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tab.MustInsert(row(int64(i), fmt.Sprintf("k%d", i%10)))
	}
	tab.Seal()

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
				rows := tab.Rows()
				for _, r := range rows {
					_ = r
				}
				_ = tab.AsSet().Len()
				if ix, ok := tab.Index("b"); ok {
					_ = ix.Lookup(value.Str("k3"))
					_ = ix.Keys() + ix.Len()
				}
				_ = tab.Epoch()
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if _, err := tab.InsertSealed(row(int64(1000+i), fmt.Sprintf("k%d", i%10))); err != nil {
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
	ix, _ := tab.Index("b")
	if ix.Len() != tab.Len() {
		t.Errorf("index rows %d out of sync with table %d", ix.Len(), tab.Len())
	}
}

// TestSetViewMatchesRows: the set view aliases the copy-on-write row slice,
// so after any history of sealed inserts, single and batched deletes (victims
// in canonical order, shuffled, duplicated, absent) and reseal cycles it must
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
		tab.Seal()
		for step := 0; step < 300; step++ {
			a := rng.Int63n(60)
			switch op := rng.Intn(10); {
			case op < 5:
				added, err := tab.InsertSealed(key(a))
				if err != nil || added == live[a] {
					t.Fatalf("seed %d step %d: InsertSealed(%d) added=%v err=%v, present=%v", seed, step, a, added, err, live[a])
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
				tab.Unseal()
				tab.MustInsert(key(a))
				tab.Seal()
				live[a] = true
			}
			rows := tab.Rows()
			if len(rows) != len(live) || !value.Equal(tab.AsSet(), value.SetOf(rows...)) {
				t.Fatalf("seed %d step %d: %d rows, %d live, set view equal to SetOf(rows)=%v",
					seed, step, len(rows), len(live), value.Equal(tab.AsSet(), value.SetOf(rows...)))
			}
			if ix, _ := tab.Index("b"); ix.Len() != len(rows) {
				t.Fatalf("seed %d step %d: index holds %d rows, table %d", seed, step, ix.Len(), len(rows))
			}
		}
	}
}

// TestSetViewSnapshotStableUnderWriter: a set view taken before a write is
// the same value after it — the writer copies, never edits, the slice the
// view aliases. Run with -race: readers walk their snapshots while the writer
// mutates.
func TestSetViewSnapshotStableUnderWriter(t *testing.T) {
	tab := NewTable("T", rowType())
	for i := 0; i < 500; i++ {
		tab.MustInsert(row(int64(2*i), "v"))
	}
	tab.Seal()

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
		if _, err := tab.InsertSealed(row(int64(2*i+1), "w")); err != nil {
			t.Error(err)
		}
		if _, err := tab.DeleteRows([]value.Value{row(int64(2*i), "v"), row(int64(2*i+1), "w")}); err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
}
