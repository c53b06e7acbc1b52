package storage

import (
	"fmt"
	"slices"
	"testing"

	"tmdb/internal/value"
)

// memoOf returns the memo of tab's current snapshot.
func memoOf(tab *Table) *Memo {
	_, m := tab.Snapshot()
	return m
}

// TestSnapshotMemoFreshPerMutation pins the memo's lifetime: each of the
// five mutations that replace the rows starts a fresh, empty memo, so nothing
// derived from the old rows is served with the new ones. A no-op mutation,
// DropIndex and CreateIndex leave the data, and so the memo, alone.
func TestSnapshotMemoFreshPerMutation(t *testing.T) {
	tab := NewTable("T", rowType())
	rows := make([]value.Value, 8)
	for i := range rows {
		rows[i] = row(int64(i), "r")
	}
	mutations := []struct {
		name   string
		mutate func() error
	}{
		{"Load", func() error { return tab.Load(rows) }},
		{"Insert", func() error { _, err := tab.Insert(row(100, "n")); return err }},
		{"Delete", func() error { _, err := tab.Delete(row(100, "n")); return err }},
		{"DeleteRows", func() error { _, err := tab.DeleteRows([]value.Value{row(0, "r"), row(1, "r")}); return err }},
		{"DeleteWhere", func() error {
			_, err := tab.DeleteWhere(func(v value.Value) bool { return v.MustGet("a").AsInt() == 2 })
			return err
		}},
		{"Load of the same rows", func() error { return tab.Load(rowsOf(tab)) }},
	}
	prev := memoOf(tab)
	for _, m := range mutations {
		prev.Store("k", m.name)
		if err := m.mutate(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		cur := memoOf(tab)
		if cur == nil || cur == prev || cur.ID() <= prev.ID() {
			t.Fatalf("%s did not start a fresh memo", m.name)
		}
		if _, ok := cur.Load("k"); ok {
			t.Errorf("%s: the fresh memo serves an entry of the old rows", m.name)
		}
		prev = cur
	}

	prev.Store("k", "kept")
	noops := map[string]func(){
		"duplicate Insert":        func() { tab.Insert(row(3, "r")) },
		"ill-typed Insert":        func() { tab.Insert(value.Int(1)) },
		"ill-typed Load":          func() { tab.Load([]value.Value{value.Int(1)}) },
		"Delete of an absent row": func() { tab.Delete(row(99, "zz")) },
		"DeleteWhere matching nothing": func() {
			tab.DeleteWhere(func(value.Value) bool { return false })
		},
		"CreateIndex": func() { tab.CreateIndex("a") },
		"DropIndex":   func() { tab.DropIndex("a") },
	}
	for name, op := range noops {
		op()
		if memoOf(tab) != prev {
			t.Errorf("%s replaced the memo, though the rows did not change", name)
		}
	}
	if v, ok := prev.Load("k"); !ok || v != "kept" {
		t.Errorf("the memo lost its entry across no-op mutations: %v %v", v, ok)
	}
}

// TestSnapshotMemoRowsMatch pins that Snapshot hands out the memo together
// with exactly the rows it belongs to.
func TestSnapshotMemoRowsMatch(t *testing.T) {
	tab := NewTable("T", rowType())
	load(t, tab, row(1, "x"))
	rows, m := tab.Snapshot()
	if _, err := tab.Insert(row(2, "y")); err != nil {
		t.Fatal(err)
	}
	rows2, m2 := tab.Snapshot()
	if n, n2 := len(slices.Concat(rows...)), len(slices.Concat(rows2...)); n != 1 || n2 != 2 || m == m2 {
		t.Errorf("snapshots: %d rows with memo %p, then %d rows with memo %p", n, m, n2, m2)
	}
}

// TestMemoCapAndFirstStoreWins pins Store: the first entry stored under a
// key is the one served, and a memo holding MemoEntries entries keeps no
// more — the offered value comes back unkept, for its builder's one use.
func TestMemoCapAndFirstStoreWins(t *testing.T) {
	var m Memo
	if v, kept := m.Store("a", 1); !kept || v != 1 {
		t.Fatalf("first store: %v %v", v, kept)
	}
	if v, kept := m.Store("a", 2); !kept || v != 1 {
		t.Errorf("second store under a key: served %v (kept %v), want the first entry", v, kept)
	}
	for i := 1; i < MemoEntries; i++ {
		if _, kept := m.Store(fmt.Sprint("k", i), i); !kept {
			t.Fatalf("entry %d of %d not kept", i+1, MemoEntries)
		}
	}
	if v, kept := m.Store("over", 99); kept || v != 99 {
		t.Errorf("store past the cap: served %v, kept %v; want the offered value, unkept", v, kept)
	}
	if _, ok := m.Load("over"); ok {
		t.Error("an entry past the cap was kept")
	}
	if v, ok := m.Load("a"); !ok || v != 1 {
		t.Errorf("a kept entry was lost: %v %v", v, ok)
	}
}
