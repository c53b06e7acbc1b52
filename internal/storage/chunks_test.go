package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tmdb/internal/value"
)

// checkChunks fails unless the snapshot's chunks are non-empty, at most
// ChunkRows rows, exactly as long as their capacity, and hold exactly want.
func checkChunks(t *testing.T, chunks [][]value.Value, want []value.Value, at string) {
	t.Helper()
	for c, ch := range chunks {
		if len(ch) == 0 || len(ch) > ChunkRows || len(ch) != cap(ch) {
			t.Fatalf("%s: chunk %d has len %d, cap %d", at, c, len(ch), cap(ch))
		}
	}
	if got := slices.Concat(chunks...); !slices.EqualFunc(got, want, value.Equal) {
		t.Fatalf("%s: %d rows, reference %d, or different ones", at, len(got), len(want))
	}
}

// TestChunkedTableMatchesReference runs seeded random sequences of Load,
// Insert, Delete and DeleteRows against a sorted reference slice. After every
// step the rows equal the reference, every snapshot taken before is
// unchanged chunk by chunk, the index holds as many rows as the table, and a
// freshly loaded table is cut at every ChunkRows rows. The sequences must
// split a full chunk, empty a chunk, delete the first and the last row and
// empty the table; the test fails if one of them never happened.
func TestChunkedTableMatchesReference(t *testing.T) {
	mk := func(a int64) value.Value { return row(a, fmt.Sprintf("k%d", a%13)) }
	seen := map[string]bool{}
	for _, seed := range []int64{1, 2} {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable("T", rowType())
		if err := tab.CreateIndex("b"); err != nil {
			t.Fatal(err)
		}
		var ref []value.Value
		type saved struct{ chunks, copies [][]value.Value }
		var snaps []saved
		for step := 0; step < 50; step++ {
			at := fmt.Sprintf("seed %d step %d", seed, step)
			before, _ := tab.Snapshot()
			switch op := rng.Intn(10); {
			case op == 0 || len(ref) == 0 && op < 5: // load, sometimes nothing
				in := make([]value.Value, rng.Intn(3*ChunkRows))
				for i := range in {
					in[i] = mk(rng.Int63n(4 * ChunkRows))
				}
				load(t, tab, in...)
				ref = slices.CompactFunc(slices.SortedFunc(slices.Values(in), value.Compare), value.Equal)
				chunks, _ := tab.Snapshot()
				for c, ch := range chunks {
					if want := min(ChunkRows, len(ref)-c*ChunkRows); len(ch) != want {
						t.Fatalf("%s: loaded chunk %d holds %d rows, want %d", at, c, len(ch), want)
					}
				}
			case op < 4: // inserts, duplicates included
				for k := rng.Intn(40) + 1; k > 0; k-- {
					v := mk(rng.Int63n(4 * ChunkRows))
					i, found := slices.BinarySearchFunc(ref, v, value.Compare)
					if added, err := tab.Insert(v); err != nil || added == found {
						t.Fatalf("%s: Insert %s: added=%v err=%v, present before=%v", at, v, added, err, found)
					}
					if !found {
						ref = slices.Insert(ref, i, v)
					}
				}
				if after, _ := tab.Snapshot(); len(after) > len(before) && len(before) > 0 {
					seen["split"] = true
				}
			case op < 6: // one delete: the first row, the last, any, or an absent one
				var v value.Value
				switch k := rng.Intn(4); {
				case len(ref) == 0 || k == 3:
					v = mk(4*ChunkRows + rng.Int63n(10))
				case k == 0:
					v, seen["first"] = ref[0], true
				case k == 1:
					v, seen["last"] = ref[len(ref)-1], true
				default:
					v = ref[rng.Intn(len(ref))]
				}
				i, found := slices.BinarySearchFunc(ref, v, value.Compare)
				if removed, err := tab.Delete(v); err != nil || removed != found {
					t.Fatalf("%s: Delete %s: removed=%v err=%v, present=%v", at, v, removed, err, found)
				}
				if found {
					ref = slices.Delete(ref, i, i+1)
				}
			case op < 9: // a range of rows, sometimes shuffled, with absent and repeated victims
				lo := rng.Int63n(4 * ChunkRows)
				hi := lo + rng.Int63n(3*ChunkRows)
				var vs, keep []value.Value
				for _, r := range ref {
					if a := r.MustGet("a").AsInt(); a >= lo && a < hi {
						vs = append(vs, r)
					} else {
						keep = append(keep, r)
					}
				}
				want := len(vs)
				vs = append(vs, mk(-1), mk(4*ChunkRows+1))
				if len(vs) > 2 {
					vs = append(vs, vs[0])
				}
				if rng.Intn(2) == 0 {
					rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
				} else {
					slices.SortFunc(vs, value.Compare)
				}
				if n, err := tab.DeleteRows(vs); err != nil || n != want {
					t.Fatalf("%s: DeleteRows removed %d (err %v), want %d", at, n, err, want)
				}
				ref = keep
				if after, _ := tab.Snapshot(); len(after) < len(before) {
					seen["emptied"] = true
				}
			default: // every row
				if n, err := tab.DeleteRows(slices.Clone(ref)); err != nil || n != len(ref) {
					t.Fatalf("%s: DeleteRows of every row removed %d (err %v), want %d", at, n, err, len(ref))
				}
				ref = nil
			}
			chunks, _ := tab.Snapshot()
			checkChunks(t, chunks, ref, at)
			if len(ref) == 0 {
				seen["empty"] = true
			}
			if ix, _ := tab.IndexOn([]string{"b"}); tab.Len() != len(ref) || ix.Len() != tab.Len() {
				t.Fatalf("%s: Len %d, index %d, reference %d", at, tab.Len(), ix.Len(), len(ref))
			}
			for k, s := range snaps {
				for c, ch := range s.chunks {
					if !slices.EqualFunc(ch, s.copies[c], value.Equal) {
						t.Fatalf("%s: snapshot %d changed in chunk %d", at, k, c)
					}
				}
			}
			s := saved{chunks: chunks}
			for _, ch := range chunks {
				s.copies = append(s.copies, slices.Clone(ch))
			}
			snaps = append(snaps, s)
		}
	}
	for _, what := range []string{"split", "emptied", "first", "last", "empty"} {
		if !seen[what] {
			t.Errorf("no sequence covered %q", what)
		}
	}
}

// TestLoadedSetViewSharesChunks: a loaded table's set view is the slice its
// chunks were carved from, so the naive evaluator's view costs no copy; after
// a write the view is materialized from the new chunks and equals them.
func TestLoadedSetViewSharesChunks(t *testing.T) {
	tab := NewTable("T", rowType())
	rows := make([]value.Value, 2*ChunkRows+300)
	for i := range rows {
		rows[i] = row(int64(i), "v")
	}
	load(t, tab, rows...)
	view := tab.AsSet().Elems()
	chunks, _ := tab.Snapshot()
	at := 0
	for c, ch := range chunks {
		if &ch[0] != &view[at] {
			t.Fatalf("chunk %d does not share the loaded view at row %d", c, at)
		}
		at += len(ch)
	}
	if _, err := tab.Insert(row(-1, "v")); err != nil {
		t.Fatal(err)
	}
	if got, want := tab.AsSet().Elems(), rowsOf(tab); !slices.EqualFunc(got, want, value.Equal) {
		t.Errorf("view after an insert has %d rows, want the %d rows of the chunks", len(got), len(want))
	}
}

// TestAppendsStartTailChunk: rows inserted past the last row of a loaded
// table, each deleted again ten inserts later, live in a chunk of their own,
// so the loaded chunks are never copied; and appending rows in key order to
// an empty table cuts them into half-full chunks.
func TestAppendsStartTailChunk(t *testing.T) {
	tab := NewTable("T", rowType())
	rows := make([]value.Value, 6000)
	for i := range rows {
		rows[i] = row(int64(i), "v")
	}
	load(t, tab, rows...)
	loaded, _ := tab.Snapshot()
	ref := slices.Clone(rows)
	for i := int64(0); i < 200; i++ {
		v := row(10_000+i, "v")
		if added, err := tab.Insert(v); err != nil || !added {
			t.Fatalf("Insert %s: added=%v err=%v", v, added, err)
		}
		ref = append(ref, v)
		if i >= 10 {
			old := row(10_000+i-10, "v")
			if removed, err := tab.Delete(old); err != nil || !removed {
				t.Fatalf("Delete %s: removed=%v err=%v", old, removed, err)
			}
			ref = slices.DeleteFunc(ref, func(r value.Value) bool { return value.Equal(r, old) })
		}
		chunks, _ := tab.Snapshot()
		at := fmt.Sprintf("after %d appends", i+1)
		checkChunks(t, chunks, ref, at)
		if len(chunks) != len(loaded)+1 {
			t.Fatalf("%s: %d chunks, want the %d loaded ones and one tail", at, len(chunks), len(loaded))
		}
		for c, ch := range loaded {
			if &chunks[c][0] != &ch[0] || len(chunks[c]) != len(ch) {
				t.Fatalf("%s: loaded chunk %d was copied", at, c)
			}
		}
	}

	seq := NewTable("S", rowType())
	var want []value.Value
	for i := int64(0); i < 3*ChunkRows; i++ {
		want = append(want, row(i, "v"))
		if _, err := seq.Insert(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	chunks, _ := seq.Snapshot()
	checkChunks(t, chunks, want, "sequential appends")
	for c, ch := range chunks {
		if len(ch) != ChunkRows/2 {
			t.Fatalf("sequential appends: chunk %d of %d holds %d rows, want %d", c, len(chunks), len(ch), ChunkRows/2)
		}
	}
}
