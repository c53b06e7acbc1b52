//go:build !race

package storage

import (
	"fmt"
	"runtime"
	"testing"

	"tmdb/internal/value"
)

// The race detector changes allocation counts, so this guard runs only in
// non-race builds.

// TestInsertCopiesOneChunk guards the cost of a write: an Insert into a
// 6 000-row indexed table copies the one chunk it lands in, not the table's
// 144 KB of rows.
func TestInsertCopiesOneChunk(t *testing.T) {
	tab := NewTable("T", rowType())
	rows := make([]value.Value, 6000)
	for i := range rows {
		rows[i] = row(int64(2*i), fmt.Sprintf("k%d", i%50))
	}
	load(t, tab, rows...)
	if err := tab.CreateIndex("b"); err != nil {
		t.Fatal(err)
	}
	// Odd keys spread over every chunk, full ones first.
	next := int64(0)
	insert := func() {
		v := row(2*((next*997)%6000)+1, "k1")
		next++
		if added, err := tab.Insert(v); err != nil || !added {
			t.Fatalf("Insert %s: added=%v err=%v", v, added, err)
		}
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, insert)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		insert()
	}
	runtime.ReadMemStats(&after)
	if perInsert := (after.TotalAlloc - before.TotalAlloc) / runs; perInsert >= 32<<10 || allocs > 16 {
		t.Errorf("an Insert allocates %d B in %.0f allocations, want under 32 KiB and at most 16", perInsert, allocs)
	}
}
