package storage

import (
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

func TestTableInsertTypecheckAndSeal(t *testing.T) {
	tab := NewTable("T", rowType())
	if err := tab.Insert(row(1, "x")); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(value.Int(3)); err == nil {
		t.Error("ill-typed insert should fail")
	}
	tab.MustInsert(row(1, "x")) // duplicate
	tab.MustInsert(row(2, "y"))
	if tab.Len() != 3 {
		t.Errorf("pre-seal Len = %d", tab.Len())
	}
	tab.Seal()
	if tab.Len() != 2 {
		t.Errorf("post-seal Len = %d (set semantics)", tab.Len())
	}
	if err := tab.Insert(row(9, "z")); err == nil {
		t.Error("insert after seal should fail")
	}
	// Seal is idempotent.
	tab.Seal()
	if tab.Len() != 2 {
		t.Error("second Seal changed the table")
	}
	if got := tab.AsSet(); got.Len() != 2 {
		t.Errorf("AsSet = %s", got)
	}
	if tab.Name() != "T" || !types.Equal(tab.ElemType(), rowType()) {
		t.Error("accessors broken")
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
	tab.MustInsert(row(1, "x"))
	db.MustCreate("U", rowType())
	db.SealAll()
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
	tab.MustInsert(row(1, "x"))
	tab.MustInsert(row(2, "x"))
	tab.MustInsert(row(3, "y"))
	tab.Seal()
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
