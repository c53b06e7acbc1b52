package storage

import (
	"testing"

	"tmdb/internal/value"
)

// TestDropIndex pins the DropIndex contract: dropping an existing index
// reports true and removes it from the registry without advancing the epoch;
// dropping a missing one reports false; an in-flight snapshot of the index
// keeps answering lookups (buckets are copy-on-write).
func TestDropIndex(t *testing.T) {
	tab := NewTable("T", pairType())
	if err := tab.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Value, 12)
	for i := range rows {
		rows[i] = pairRow(int64(i%3), int64(i%6), int64(i))
	}
	load(t, tab, rows...)

	ix, ok := tab.IndexOn([]string{"a"})
	if !ok {
		t.Fatal("index not served after load")
	}
	epoch := tab.Epoch()

	if tab.DropIndex("b") {
		t.Error("DropIndex on a never-created index reported true")
	}
	if !tab.DropIndex("a") {
		t.Fatal("DropIndex on an existing index reported false")
	}
	if tab.DropIndex("a") {
		t.Error("second DropIndex on the same index reported true")
	}
	if _, ok := tab.IndexOn([]string{"a"}); ok {
		t.Error("index still served after drop")
	}
	if got := tab.Epoch(); got != epoch {
		t.Errorf("epoch advanced on DropIndex: %d -> %d (data unchanged)", epoch, got)
	}
	// The resolved snapshot outlives the registry entry.
	if got := ix.Lookup(value.Int(1)); len(got) != 4 {
		t.Errorf("snapshot lookup after drop = %d rows, want 4", len(got))
	}
}

// TestDBDropIndex pins the DB-level wrapper: unknown tables error, known
// tables delegate.
func TestDBDropIndex(t *testing.T) {
	db := NewDB()
	tab := db.MustCreate("T", pairType())
	if err := tab.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}

	if _, err := db.DropIndex("nope", "a"); err == nil {
		t.Error("DropIndex on an unknown table must error")
	}
	dropped, err := db.DropIndex("T", "a")
	if err != nil {
		t.Fatal(err)
	}
	if !dropped {
		t.Error("DropIndex on an existing index reported false")
	}
}
