package storage

import (
	"slices"
	"testing"

	"tmdb/internal/types"
	"tmdb/internal/value"
)

func rowType() *types.Type {
	return types.Tuple(types.F("a", types.Int), types.F("b", types.String))
}

func row(a int64, b string) value.Value {
	return value.TupleOf(value.F("a", value.Int(a)), value.F("b", value.Str(b)))
}

// load replaces tab's rows with rows, failing the test on a type error.
func load(t testing.TB, tab *Table, rows ...value.Value) {
	t.Helper()
	if err := tab.Load(rows); err != nil {
		t.Fatal(err)
	}
}

// rowsOf returns tab's current rows as one slice.
func rowsOf(tab *Table) []value.Value {
	chunks, _ := tab.Snapshot()
	return slices.Concat(chunks...)
}

// TestCreatedTableIsEmptySet pins the one table state from creation on: an
// empty set with a memo, whose rows Insert keeps canonical.
func TestCreatedTableIsEmptySet(t *testing.T) {
	tab, err := NewDB().Create("T", rowType())
	if err != nil {
		t.Fatal(err)
	}
	rows, m := tab.Snapshot()
	if len(rows) != 0 || m == nil || tab.AsSet().Len() != 0 || tab.Len() != 0 {
		t.Fatalf("fresh table: %d rows, memo %p, set view %s", len(rows), m, tab.AsSet())
	}
	if _, err := tab.Insert(value.Int(3)); err == nil {
		t.Error("ill-typed insert should fail")
	}
	for _, r := range []value.Value{row(2, "y"), row(1, "x"), row(2, "y")} {
		if _, err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := rowsOf(tab); len(got) != 2 || !value.Equal(got[0], row(1, "x")) {
		t.Errorf("rows after inserts = %v, want the canonical set of two", got)
	}
	if tab.Name() != "T" || !types.Equal(tab.ElemType(), rowType()) {
		t.Error("accessors broken")
	}
}

// TestLoadDedupsIntoCanonicalOrder checks that Load keeps a sorted,
// duplicate-free copy of its rows, leaves the caller's slice and earlier
// snapshots untouched, and rebuilds every registered index, composite ones
// included.
func TestLoadDedupsIntoCanonicalOrder(t *testing.T) {
	tab := NewTable("T", pairType())
	if err := tab.CreateIndex("b", "a"); err != nil {
		t.Fatal(err)
	}
	old, _ := tab.Snapshot()
	in := []value.Value{pairRow(3, 1, 0), pairRow(1, 2, 0), pairRow(3, 1, 0), pairRow(2, 1, 0), pairRow(1, 2, 0)}
	orig := slices.Clone(in)
	load(t, tab, in...)
	want := []value.Value{pairRow(1, 2, 0), pairRow(2, 1, 0), pairRow(3, 1, 0)}
	if got := rowsOf(tab); !slices.EqualFunc(got, want, value.Equal) {
		t.Errorf("rows = %v, want %v", got, want)
	}
	if !slices.EqualFunc(in, orig, value.Equal) || len(old) != 0 {
		t.Error("Load changed the caller's slice or an earlier snapshot")
	}
	ix, ok := tab.IndexOn([]string{"b", "a"})
	if !ok || ix.Len() != 3 || ix.KeysAt(1) != 2 || ix.KeysAt(2) != 3 {
		t.Fatalf("index after load: ok=%v Len=%d KeysAt(1)=%d KeysAt(2)=%d", ok, ix.Len(), ix.KeysAt(1), ix.KeysAt(2))
	}
	if got := ix.LookupPrefix([]value.Value{value.Int(1), value.Int(3)}); len(got) != 1 {
		t.Errorf("composite point lookup = %v", got)
	}
	// A reload rebuilds the index from scratch: rows gone from the load
	// leave it.
	load(t, tab, pairRow(4, 2, 0))
	ix2, _ := tab.IndexOn([]string{"b", "a"})
	if ix2 == ix || ix2.Len() != 1 || ix2.Contains(value.Int(1)) {
		t.Errorf("reload did not rebuild the index: Len=%d", ix2.Len())
	}
	if ix.Len() != 3 {
		t.Error("reload changed the index an earlier reader resolved")
	}
}

// TestLoadIllTypedRowChangesNothing: one ill-typed row fails the whole load,
// and the rows, the epoch and the memo are those before it.
func TestLoadIllTypedRowChangesNothing(t *testing.T) {
	tab := NewTable("T", rowType())
	load(t, tab, row(1, "x"), row(2, "y"))
	rows, m := rowsOf(tab), memoOf(tab)
	epoch := tab.Epoch()
	if err := tab.Load([]value.Value{row(3, "z"), value.Int(3), row(4, "w")}); err == nil {
		t.Fatal("a load with an ill-typed row must fail")
	}
	rows2, m2 := rowsOf(tab), memoOf(tab)
	if !slices.EqualFunc(rows, rows2, value.Equal) || m2 != m || tab.Epoch() != epoch {
		t.Errorf("failed load changed the table: rows %v -> %v, memo %p -> %p, epoch %d -> %d",
			rows, rows2, m, m2, epoch, tab.Epoch())
	}
}

func TestDB(t *testing.T) {
	db := NewDB()
	tab, err := db.Create("T", rowType())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create("T", rowType()); err == nil {
		t.Error("duplicate create should fail")
	}
	load(t, tab, row(1, "x"))
	db.MustCreate("U", rowType())
	if got := db.Names(); len(got) != 2 || got[0] != "T" || got[1] != "U" {
		t.Errorf("Names = %v", got)
	}
	if _, ok := db.Table("T"); !ok {
		t.Error("Table lookup failed")
	}
	if _, ok := db.Table("NOPE"); ok {
		t.Error("unknown table should not be found")
	}
}

func TestHashIndex(t *testing.T) {
	tab := NewTable("T", rowType())
	load(t, tab, row(1, "x"), row(2, "x"), row(3, "y"))
	ix, err := BuildHashIndex(tab, "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Lookup(value.Str("x")); len(got) != 2 {
		t.Errorf("Lookup(x) = %v", got)
	}
	if got := ix.Lookup(value.Str("zzz")); got != nil {
		t.Errorf("missing key should yield nil, got %v", got)
	}
	if !ix.Contains(value.Str("y")) || ix.Contains(value.Str("q")) {
		t.Error("Contains broken")
	}
	if ix.Keys() != 2 || ix.Len() != 3 {
		t.Errorf("Keys=%d Len=%d", ix.Keys(), ix.Len())
	}
}

// BuildHashIndex indexes every row of the table on the given attribute list.
func BuildHashIndex(t *Table, attrs ...string) (*HashIndex, error) {
	ix := NewHashIndex(attrs...)
	for _, r := range t.Rows() {
		if !ix.Add(r) {
			return nil, errMissingAttr(t.name, r, attrs)
		}
	}
	return ix, nil
}

// ElemType returns the element tuple type.
func (t *Table) ElemType() *types.Type { return t.elem }

// Lookup returns the rows whose first attribute equals key (nil if none) —
// the single-attribute convenience form of LookupPrefix. The returned slice
// must not be modified.
func (ix *HashIndex) Lookup(key value.Value) []value.Value {
	return ix.LookupPrefix([]value.Value{key})
}

// Contains reports whether any row is stored under the full composite key
// prefix given.
func (ix *HashIndex) Contains(keys ...value.Value) bool {
	return ix.LookupPrefix(keys) != nil
}

// Name returns the extension name.
func (t *Table) Name() string { return t.name }

// LookupPrefix returns the rows whose first len(keys) index attributes equal
// the given values (nil if none, error-free: a too-long prefix yields nil).
// The returned slice must not be modified.
func (ix *HashIndex) LookupPrefix(keys []value.Value) []value.Value {
	if len(keys) == 0 || len(keys) > len(ix.attrs) {
		return nil
	}
	var buf []byte
	for _, k := range keys {
		buf = value.AppendKey(buf, k)
	}
	return ix.LookupEncoded(string(buf), len(keys))
}
