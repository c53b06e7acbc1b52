package storage

import (
	"fmt"
	"sync"
	"testing"

	"tmdb/internal/types"
	"tmdb/internal/value"
)

func pairType() *types.Type {
	return types.Tuple(types.F("a", types.Int), types.F("b", types.Int), types.F("c", types.Int))
}

func pairRow(a, b, c int64) value.Value {
	return value.TupleOf(value.F("a", value.Int(a)), value.F("b", value.Int(b)), value.F("c", value.Int(c)))
}

// TestCompositeIndexPrefixLookups pins the multi-level contract: an index on
// (a, b) answers point lookups on (a) and on (a, b), each from its own
// bucket map, with per-depth key counters.
func TestCompositeIndexPrefixLookups(t *testing.T) {
	tab := NewTable("T", pairType())
	if err := tab.CreateIndex("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("a", "a"); err == nil {
		t.Error("duplicate attribute in one index must fail")
	}
	if err := tab.CreateIndex(); err == nil {
		t.Error("empty attribute list must fail")
	}
	rows := make([]value.Value, 24)
	for i := range rows {
		rows[i] = pairRow(int64(i%3), int64(i%6), int64(i))
	}
	load(t, tab, rows...)

	ix, ok := tab.IndexOn([]string{"a", "b"})
	if !ok {
		t.Fatal("composite index not served after load")
	}
	if name := ix.Name(); name != "a,b" {
		t.Errorf("Name = %q, want a,b", name)
	}
	// 24 rows: a in {0,1,2} (8 each); (a,b) pairs: b = a or a+3 mod 6 → 2
	// full keys per a value, 4 rows each.
	if got := ix.KeysAt(1); got != 3 {
		t.Errorf("KeysAt(1) = %d, want 3", got)
	}
	if got := ix.KeysAt(2); got != 6 {
		t.Errorf("KeysAt(2) = %d, want 6", got)
	}
	if got := ix.LookupPrefix([]value.Value{value.Int(1)}); len(got) != 8 {
		t.Errorf("prefix (a=1) = %d rows, want 8", len(got))
	}
	if got := ix.LookupPrefix([]value.Value{value.Int(1), value.Int(4)}); len(got) != 4 {
		t.Errorf("point (a=1,b=4) = %d rows, want 4", len(got))
	}
	if got := ix.LookupPrefix([]value.Value{value.Int(1), value.Int(5)}); got != nil {
		t.Errorf("missing point must yield nil, got %v", got)
	}
	if got := ix.LookupPrefix(nil); got != nil {
		t.Error("empty prefix must yield nil")
	}
	if got := ix.LookupPrefix([]value.Value{value.Int(1), value.Int(4), value.Int(9)}); got != nil {
		t.Error("over-long prefix must yield nil")
	}

	if keys, rows := ix.KeysAt(2), ix.Len(); keys != 6 || rows != 24 {
		t.Errorf("KeysAt(2) = %d, Len = %d, want 6 and 24", keys, rows)
	}
	if ix.KeysAt(3) != 0 {
		t.Error("KeysAt beyond the attribute list must be 0")
	}
	// A single-attribute index and a composite one coexist under distinct
	// canonical names.
	if err := tab.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	lists := tab.Indexes()
	if len(lists) != 2 || IndexName(lists[0]) != "a" || IndexName(lists[1]) != "a,b" {
		t.Errorf("Indexes = %v", lists)
	}
}

// TestCompositeIndexMutationCycles runs load → mutate → reload cycles on a
// composite index, checking every level stays consistent with
// the table contents. The paired reader goroutines make this a -race test
// of the copy-on-write bucket discipline on multi-level indexes.
func TestCompositeIndexMutationCycles(t *testing.T) {
	tab := NewTable("T", pairType())
	if err := tab.CreateIndex("a", "b"); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Value, 60)
	for i := range rows {
		rows[i] = pairRow(int64(i%5), int64(i%10), int64(i))
	}
	load(t, tab, rows...)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ix, ok := tab.IndexOn([]string{"a", "b"}); ok {
					_ = ix.LookupPrefix([]value.Value{value.Int(int64(w % 5))})
					_ = ix.LookupPrefix([]value.Value{value.Int(int64(w % 5)), value.Int(int64(w))})
					_ = ix.KeysAt(1) + ix.KeysAt(2) + ix.Len()
				}
			}
		}(w)
	}

	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 40; i++ {
			v := pairRow(int64(i%5), int64(1000+cycle), int64(2000+cycle*100+i))
			if _, err := tab.Insert(v); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				if removed, err := tab.Delete(v); err != nil || !removed {
					t.Fatalf("delete cycle %d i %d: removed=%v err=%v", cycle, i, removed, err)
				}
			}
		}
		if _, err := tab.DeleteWhere(func(v value.Value) bool {
			c, _ := v.Get("c")
			return c.AsInt() >= 2000
		}); err != nil {
			t.Fatal(err)
		}
		load(t, tab, append(rowsOf(tab), pairRow(int64(cycle), 7, int64(5000+cycle)))...)
	}
	close(stop)
	wg.Wait()

	ix, ok := tab.IndexOn([]string{"a", "b"})
	if !ok {
		t.Fatal("index not live after reload")
	}
	if ix.Len() != tab.Len() {
		t.Fatalf("index rows %d out of sync with table %d", ix.Len(), tab.Len())
	}
	// Every level answers consistently with a filtered scan.
	for _, probe := range []struct {
		keys []value.Value
	}{
		{[]value.Value{value.Int(2)}},
		{[]value.Value{value.Int(2), value.Int(7)}},
		{[]value.Value{value.Int(4), value.Int(9)}},
	} {
		want := 0
		for _, r := range tab.Rows() {
			a, _ := r.Get("a")
			b, _ := r.Get("b")
			if value.Equal(a, probe.keys[0]) && (len(probe.keys) < 2 || value.Equal(b, probe.keys[1])) {
				want++
			}
		}
		if got := len(ix.LookupPrefix(probe.keys)); got != want {
			t.Errorf("LookupPrefix(%v) = %d rows, scan says %d", probe.keys, got, want)
		}
	}
}

// TestCompositeIndexEncodedLookupMatchesPrefix pins the allocation-lean
// probe path: LookupEncoded over an AppendKey-encoded buffer returns the
// same bucket as LookupPrefix.
func TestCompositeIndexEncodedLookupMatchesPrefix(t *testing.T) {
	tab := NewTable("T", pairType())
	if err := tab.CreateIndex("b", "c"); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Value, 10)
	for i := range rows {
		rows[i] = pairRow(int64(i), int64(i%2), int64(i%3))
	}
	load(t, tab, rows...)
	ix, _ := tab.IndexOn([]string{"b", "c"})
	var buf []byte
	buf = value.AppendKey(buf, value.Int(1))
	if got, want := ix.LookupEncoded(string(buf), 1), ix.Lookup(value.Int(1)); len(got) != len(want) || len(got) == 0 {
		t.Errorf("encoded depth-1 lookup = %d rows, prefix lookup %d", len(got), len(want))
	}
	buf = value.AppendKey(buf, value.Int(2))
	if got, want := ix.LookupEncoded(string(buf), 2),
		ix.LookupPrefix([]value.Value{value.Int(1), value.Int(2)}); len(got) != len(want) {
		t.Errorf("encoded depth-2 lookup = %d rows, prefix lookup %d", len(got), len(want))
	}
	if ix.LookupEncoded(string(buf), 0) != nil || ix.LookupEncoded(string(buf), 3) != nil {
		t.Error("out-of-range depths must yield nil")
	}
	msg := fmt.Sprintf("%v", ix.Attrs())
	if msg != "[b c]" {
		t.Errorf("Attrs = %s", msg)
	}
}
