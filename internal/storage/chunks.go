package storage

import (
	"iter"
	"slices"
	"sort"

	"tmdb/internal/value"
)

// ChunkRows is the most rows one chunk of a table holds. It equals the
// executor's batch size, so a table scan emits one chunk per batch and a
// loaded table yields the same batch boundaries as one contiguous slice.
const ChunkRows = 1024

// chunked is an immutable chunked canonical sequence: a table's rows in
// canonical order, cut into sorted, non-empty chunks of at most ChunkRows
// rows whose length equals their capacity. A write never edits a chunk or
// the directory; it builds a new sequence that copies the chunks it touches
// and the directory, and shares every other chunk with the sequence it came
// from — copy-on-write per chunk, as in a B-tree whose untouched pages are
// shared between versions (Bayer & McCreight; Okasaki's persistent
// sequences).
type chunked struct {
	chunks [][]value.Value
	n      int // total rows
}

// pos addresses a row of a chunked sequence: chunk c, offset i in it. A
// position with c == len(chunks) is past the last row.
type pos struct{ c, i int }

// carve cuts canonical rows into full chunks (the last one holding the
// rest) without copying: each chunk is a capacity-limited subslice of rows,
// which the caller hands over.
func carve(rows []value.Value) chunked {
	s := chunked{chunks: make([][]value.Value, 0, (len(rows)+ChunkRows-1)/ChunkRows), n: len(rows)}
	for i := 0; i < len(rows); i += ChunkRows {
		j := min(i+ChunkRows, len(rows))
		s.chunks = append(s.chunks, rows[i:j:j])
	}
	return s
}

// all iterates over the rows in order, each with its position in the whole
// sequence.
func (s chunked) all() iter.Seq2[int, value.Value] {
	return func(yield func(int, value.Value) bool) {
		i := 0
		for _, ch := range s.chunks {
			for _, r := range ch {
				if !yield(i, r) {
					return
				}
				i++
			}
		}
	}
}

// find returns the position of the first row not less than v at or after
// from, and whether that row equals v: a binary search over the chunks' last
// rows, then one inside the chunk.
func (s chunked) find(v value.Value, from pos) (pos, bool) {
	cs := s.chunks[from.c:]
	c := from.c + sort.Search(len(cs), func(k int) bool {
		ch := cs[k]
		return !value.Less(ch[len(ch)-1], v)
	})
	if c == len(s.chunks) {
		return pos{c: c}, false
	}
	lo := 0
	if c == from.c {
		lo = from.i
	}
	i, found := slices.BinarySearchFunc(s.chunks[c][lo:], v, value.Compare)
	return pos{c, lo + i}, found
}

// insert returns the sequence with v inserted at p, a position find
// returned for v. Only the chunk that receives v is copied; a chunk that
// would exceed ChunkRows is split in half. A row past the last one starts a
// chunk of its own once the last chunk is half full, so appending rows in
// key order copies at most half a chunk per row and leaves the full chunks
// before them untouched (the right-edge case of a B-tree split, where the
// new key gets a fresh leaf instead of half of the old one).
func (s chunked) insert(p pos, v value.Value) chunked {
	if len(s.chunks) == 0 {
		return chunked{chunks: [][]value.Value{{v}}, n: 1}
	}
	if p.c == len(s.chunks) { // past the last row
		if len(s.chunks[p.c-1]) >= ChunkRows/2 {
			return chunked{chunks: append(s.chunks[:p.c:p.c], []value.Value{v}), n: s.n + 1}
		}
		p = pos{p.c - 1, len(s.chunks[p.c-1])}
	}
	ch := s.chunks[p.c]
	grown := make([]value.Value, len(ch)+1)
	copy(grown, ch[:p.i])
	grown[p.i] = v
	copy(grown[p.i+1:], ch[p.i:])
	if len(grown) <= ChunkRows {
		return chunked{chunks: replace(s.chunks, p.c, grown), n: s.n + 1}
	}
	h := len(grown) / 2
	return chunked{chunks: replace(s.chunks, p.c, grown[:h:h], grown[h:]), n: s.n + 1}
}

// remove returns the sequence without the rows at the given strictly
// ascending positions. Only the chunks holding a victim are copied, and a
// chunk left empty is dropped.
func (s chunked) remove(victims []pos) chunked {
	out := chunked{chunks: make([][]value.Value, 0, len(s.chunks)), n: s.n - len(victims)}
	for c, ch := range s.chunks {
		k := 0
		for k < len(victims) && victims[k].c == c {
			k++
		}
		if k == 0 {
			out.chunks = append(out.chunks, ch)
			continue
		}
		if kept := len(ch) - k; kept > 0 {
			rows := make([]value.Value, 0, kept)
			from := 0
			for _, p := range victims[:k] {
				rows = append(rows, ch[from:p.i]...)
				from = p.i + 1
			}
			out.chunks = append(out.chunks, append(rows, ch[from:]...))
		}
		victims = victims[k:]
	}
	return out
}

// replace returns a copy of dir with the chunk at c replaced by the given
// ones.
func replace(dir [][]value.Value, c int, with ...[]value.Value) [][]value.Value {
	out := make([][]value.Value, 0, len(dir)-1+len(with))
	out = append(out, dir[:c]...)
	out = append(out, with...)
	return append(out, dir[c+1:]...)
}

// Bound is one end of a range of leading-field values: absent unless Set,
// in which case the range is bounded by V, which it includes unless Strict.
type Bound struct {
	V           value.Value
	Set, Strict bool
}

// KeyRange is a range of a table's leading-field values — the values of the
// first field of its tuples. The zero KeyRange is unbounded on both sides.
type KeyRange struct{ Lo, Hi Bound }

// Bounded reports whether the range excludes anything: whether it has a
// bound.
func (r KeyRange) Bounded() bool { return r.Lo.Set || r.Hi.Set }

// String renders the range as an interval of values: [3, 7), (-∞, 5].
func (r KeyRange) String() string {
	lo, hi := "(-∞", "+∞)"
	if r.Lo.Set {
		lo = "[" + r.Lo.V.String()
		if r.Lo.Strict {
			lo = "(" + r.Lo.V.String()
		}
	}
	if r.Hi.Set {
		hi = r.Hi.V.String() + "]"
		if r.Hi.Strict {
			hi = r.Hi.V.String() + ")"
		}
	}
	return lo + ", " + hi
}

// below reports whether a value lies below the range's lower bound, above
// whether it lies above the upper one.
func (r KeyRange) below(v value.Value) bool {
	if !r.Lo.Set {
		return false
	}
	c := value.Compare(v, r.Lo.V)
	return c < 0 || c == 0 && r.Lo.Strict
}

func (r KeyRange) above(v value.Value) bool {
	if !r.Hi.Set {
		return false
	}
	c := value.Compare(v, r.Hi.V)
	return c > 0 || c == 0 && r.Hi.Strict
}

// lead is a row's leading-field value.
func lead(row value.Value) value.Value { return row.Fields()[0].V }

// Cut returns the rows of a snapshot's chunk directory (Snapshot) whose
// leading field lies in the range, as a chunk directory again. The table's
// element type must be a tuple type: every row then carries its labels, so
// the canonical order sorts the rows on their first field first, and the
// rows in range are one run. Cut binary-searches the chunks' last rows for
// the first chunk of the run and their first rows for its last, then
// searches inside those two edge chunks. The result shares every row with
// chunks: a chunk wholly in range is passed on, an edge chunk is cut to a
// zero-copy ch[i:j:j] subslice, and an unbounded range returns chunks
// itself. Chunks stay non-empty, and an empty run is an empty directory.
func (r KeyRange) Cut(chunks [][]value.Value) [][]value.Value {
	if !r.Bounded() {
		return chunks
	}
	first := sort.Search(len(chunks), func(k int) bool { ch := chunks[k]; return !r.below(lead(ch[len(ch)-1])) })
	end := sort.Search(len(chunks), func(k int) bool { return r.above(lead(chunks[k][0])) })
	if first >= end {
		return nil
	}
	lo := chunks[first]
	i := sort.Search(len(lo), func(k int) bool { return !r.below(lead(lo[k])) })
	hi := chunks[end-1]
	j := sort.Search(len(hi), func(k int) bool { return r.above(lead(hi[k])) })
	if first == end-1 {
		if i >= j {
			return nil
		}
		return [][]value.Value{lo[i:j:j]}
	}
	out := make([][]value.Value, 0, end-first)
	out = append(out, lo[i:])
	out = append(out, chunks[first+1:end-1]...)
	return append(out, hi[:j:j])
}
