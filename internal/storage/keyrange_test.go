package storage

import (
	"fmt"
	"math"
	"testing"

	"tmdb/internal/types"
	"tmdb/internal/value"
)

// inRange is the reference of KeyRange.Cut: whether a row's leading field
// lies in r, decided by value.Compare as the comparison operators decide it.
func inRange(r KeyRange, row value.Value) bool {
	v := row.Fields()[0].V
	if r.Lo.Set {
		if c := value.Compare(v, r.Lo.V); c < 0 || c == 0 && r.Lo.Strict {
			return false
		}
	}
	if r.Hi.Set {
		if c := value.Compare(v, r.Hi.V); c > 0 || c == 0 && r.Hi.Strict {
			return false
		}
	}
	return true
}

// checkCut fails unless r cut from the snapshot's chunks is a well-formed
// chunk directory (checkChunks) holding exactly the rows in range, every
// chunk of it a subslice of a chunk of the snapshot.
func checkCut(t *testing.T, chunks [][]value.Value, r KeyRange) {
	t.Helper()
	var want []value.Value
	for _, ch := range chunks {
		for _, v := range ch {
			if inRange(r, v) {
				want = append(want, v)
			}
		}
	}
	cut := r.Cut(chunks)
	at := fmt.Sprintf("range %s", r)
	checkChunks(t, cut, want, at)
	for k, out := range cut {
		shared := false
		for _, ch := range chunks {
			for i := range ch {
				shared = shared || &ch[i] == &out[0]
			}
		}
		if !shared {
			t.Fatalf("%s: cut chunk %d copies its rows", at, k)
		}
	}
}

// bounds returns every bound at v: inclusive and strict.
func bounds(v value.Value) []Bound {
	return []Bound{{V: v, Set: true}, {V: v, Set: true, Strict: true}}
}

// TestKeyRangeCut cuts a table whose chunks Insert split and DeleteRows
// emptied, at bounds on the first and last row of every chunk and just
// beside them, in every combination of open, closed and absent ends:
// ranges inside one chunk, spanning several, empty ones (lo above hi, a
// point between two rows, a strict point), and bounds below and above every
// row. It also cuts an empty table.
func TestKeyRangeCut(t *testing.T) {
	tab := NewTable("T", rowType())
	var rows []value.Value
	for a := int64(0); a < 3*ChunkRows; a++ {
		rows = append(rows, row(4*a, "x"))
	}
	load(t, tab, rows...)
	// Splits: a run of inserts into the first chunk. Empties: the whole
	// second chunk as loaded.
	for a := int64(1); a < 4*ChunkRows/2; a += 4 {
		if _, err := tab.Insert(row(a, "y")); err != nil {
			t.Fatal(err)
		}
	}
	split, _ := tab.Snapshot()
	if len(split) <= 3 {
		t.Fatalf("%d chunks: the inserts split no chunk", len(split))
	}
	var victims []value.Value
	for a := int64(ChunkRows); a < 2*ChunkRows; a++ {
		victims = append(victims, row(4*a, "x"))
	}
	if n, err := tab.DeleteRows(victims); err != nil || n != ChunkRows {
		t.Fatalf("DeleteRows: n=%d err=%v", n, err)
	}
	chunks, _ := tab.Snapshot()
	if len(chunks) != len(split)-1 {
		t.Fatalf("%d chunks after the deletes, %d before: they emptied no chunk", len(chunks), len(split))
	}

	// Edge values: each chunk's first and last leading value and its
	// neighbours, and values below and above every row.
	edges := []value.Value{value.Int(-5), value.Int(1 << 40)}
	for _, ch := range chunks {
		for _, r := range []value.Value{ch[0], ch[len(ch)-1]} {
			a := r.Fields()[0].V.AsInt()
			edges = append(edges, value.Int(a-1), value.Int(a), value.Int(a+1))
		}
	}
	unbounded := KeyRange{}
	if got := unbounded.Cut(chunks); len(got) != len(chunks) || &got[0] != &chunks[0] {
		t.Fatal("an unbounded range does not return the directory itself")
	}
	for _, lo := range edges {
		checkCut(t, chunks, KeyRange{Lo: Bound{V: lo, Set: true}})
		checkCut(t, chunks, KeyRange{Hi: Bound{V: lo, Set: true, Strict: true}})
		for _, hi := range edges {
			for _, l := range bounds(lo) {
				for _, h := range bounds(hi) {
					checkCut(t, chunks, KeyRange{Lo: l, Hi: h})
				}
			}
		}
	}

	empty := NewTable("E", rowType())
	none, _ := empty.Snapshot()
	for _, r := range []KeyRange{{Lo: Bound{V: value.Int(0), Set: true}}, {Hi: Bound{V: value.Int(0), Set: true}}} {
		if got := r.Cut(none); len(got) != 0 {
			t.Fatalf("range %s of an empty table: %d chunks", r, len(got))
		}
	}
}

// TestKeyRangeCutMixedNumerics cuts a table whose FLOAT leading attribute
// holds ints and floats (types.Check accepts both), NaN included, at int
// and float bounds: the cut follows value.Compare, which compares the two
// kinds numerically, so 2 and 2.0 are one value and NaN sorts first.
func TestKeyRangeCutMixedNumerics(t *testing.T) {
	tab := NewTable("F", types.Tuple(types.F("a", types.Float), types.F("b", types.Int)))
	var rows []value.Value
	add := func(a value.Value) {
		rows = append(rows, value.TupleOf(value.F("a", a), value.F("b", value.Int(int64(len(rows))))))
	}
	add(value.Float(math.NaN()))
	for i := int64(-3); i < 3*ChunkRows/2; i++ {
		add(value.Int(i))
		add(value.Float(float64(i) + 0.5))
		if i%7 == 0 {
			add(value.Float(float64(i))) // equal to the int i
		}
	}
	load(t, tab, rows...)
	chunks, _ := tab.Snapshot()
	if len(chunks) < 3 {
		t.Fatalf("%d chunks, want several", len(chunks))
	}
	var edges []value.Value
	for _, x := range []float64{-10, -3, -2.5, 0, 0.5, 7, 7.25, 700, 1023.5, 1100, 1e9} {
		edges = append(edges, value.Float(x))
		if x == math.Trunc(x) {
			edges = append(edges, value.Int(int64(x)))
		}
	}
	edges = append(edges, value.Float(math.NaN()))
	for _, lo := range edges {
		checkCut(t, chunks, KeyRange{Lo: Bound{V: lo, Set: true, Strict: true}})
		checkCut(t, chunks, KeyRange{Hi: Bound{V: lo, Set: true}})
		for _, hi := range edges {
			for _, l := range bounds(lo) {
				for _, h := range bounds(hi) {
					checkCut(t, chunks, KeyRange{Lo: l, Hi: h})
				}
			}
		}
	}
}
