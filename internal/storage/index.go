package storage

import (
	"strings"
	"sync"

	"tmdb/internal/value"
)

// HashIndex is an exact-key hash index over a table on an ordered list of
// top-level attributes. Tables keep persistent ones per attribute list (see
// Table.CreateIndex); the planner's index joins and index scans probe them
// instead of building a hash table (or scanning the table) per query.
//
// A composite index on (a, b, c) answers equality lookups on any non-empty
// PREFIX of its attribute list: one bucket map is maintained per prefix
// depth, so a probe covering only (a, b) is a single O(1) lookup at depth 2
// rather than a scan over the full-key buckets. Keys use the collision-free
// canonical encoding value.AppendKey concatenated in attribute order —
// encodings are self-delimiting, so the concatenation is injective for a
// fixed depth and lookups never re-check the key itself (residual predicates
// are still re-checked by the operators that own them).
//
// The index is safe for concurrent use: lookups may run while a mutation
// adds or removes rows. Removal rewrites the affected buckets (copy-on-write)
// and Add only ever appends, so a bucket slice returned by a lookup stays
// valid for the reader that obtained it.
type HashIndex struct {
	attrs []string // indexed attribute list, in key order; immutable

	mu sync.RWMutex
	// levels[d] maps the encoded key prefix attrs[:d+1] to its rows. The
	// deepest level holds the full composite key.
	levels []map[string][]value.Value
	// rows counts indexed rows, so Len is O(1) — the cost model reads it per
	// candidate plan. Distinct-key counts are O(1) via len(levels[d]).
	rows int
}

// NewHashIndex returns an empty index on the given attribute list (at least
// one attribute).
func NewHashIndex(attrs ...string) *HashIndex {
	if len(attrs) == 0 {
		panic("storage: hash index needs at least one attribute")
	}
	levels := make([]map[string][]value.Value, len(attrs))
	for i := range levels {
		levels[i] = make(map[string][]value.Value)
	}
	return &HashIndex{attrs: append([]string(nil), attrs...), levels: levels}
}

// IndexName is the canonical registry name of an index on the given ordered
// attribute list: the attributes joined with commas ("b,d"). A single-attr
// index's name is the attribute itself, so pre-composite callers that look
// indexes up by attribute keep working.
func IndexName(attrs []string) string { return strings.Join(attrs, ",") }

// Attrs returns the indexed attribute list (do not modify).
func (ix *HashIndex) Attrs() []string { return ix.attrs }

// Name returns the canonical registry name (attributes comma-joined).
func (ix *HashIndex) Name() string { return IndexName(ix.attrs) }

// appendRowKey appends the encodings of the row's first depth index
// attributes onto buf. ok is false when the row lacks one of them (rows are
// typechecked on insert, so a miss indicates corruption; callers surface it).
func (ix *HashIndex) appendRowKey(buf []byte, row value.Value, depth int) ([]byte, bool) {
	if row.Kind() != value.KindTuple {
		return buf, false
	}
	for _, attr := range ix.attrs[:depth] {
		f, ok := row.Get(attr)
		if !ok {
			return buf, false
		}
		buf = value.AppendKey(buf, f)
	}
	return buf, true
}

// Add inserts a row under its composite key, reporting whether every index
// attribute was present on the row.
func (ix *HashIndex) Add(row value.Value) bool {
	var buf []byte
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for d := range ix.levels {
		var ok bool
		buf, ok = ix.appendRowKey(buf[:0], row, d+1)
		if !ok {
			return false
		}
		ix.levels[d][string(buf)] = append(ix.levels[d][string(buf)], row)
	}
	ix.rows++
	return true
}

// Remove deletes one row (by value equality) from every level, reporting
// whether it was present. Buckets are rewritten rather than edited so
// concurrent readers holding an old bucket stay consistent.
func (ix *HashIndex) Remove(row value.Value) bool {
	var buf []byte
	ix.mu.Lock()
	defer ix.mu.Unlock()
	removed := false
	for d := range ix.levels {
		var ok bool
		buf, ok = ix.appendRowKey(buf[:0], row, d+1)
		if !ok {
			continue
		}
		k := string(buf)
		b := ix.levels[d][k]
		for i, r := range b {
			if value.Equal(r, row) {
				if len(b) == 1 {
					delete(ix.levels[d], k)
				} else {
					nb := make([]value.Value, 0, len(b)-1)
					nb = append(nb, b[:i]...)
					nb = append(nb, b[i+1:]...)
					ix.levels[d][k] = nb
				}
				removed = true
				break
			}
		}
	}
	if removed {
		ix.rows--
	}
	return removed
}

// LookupEncoded returns the bucket for an already-encoded key prefix at the
// given depth (number of leading attributes the encoding covers). This is
// the allocation-lean probe path: callers encode with value.AppendKey onto a
// scratch buffer and pass string(buf), which Go compiles without allocating
// for the map lookup.
func (ix *HashIndex) LookupEncoded(key string, depth int) []value.Value {
	if depth < 1 || depth > len(ix.attrs) {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.levels[depth-1][key]
}

// Keys returns the number of distinct full composite keys in O(1).
func (ix *HashIndex) Keys() int { return ix.KeysAt(len(ix.attrs)) }

// KeysAt returns the number of distinct key prefixes at the given depth in
// O(1) (0 when the depth is out of range).
func (ix *HashIndex) KeysAt(depth int) int {
	if depth < 1 || depth > len(ix.attrs) {
		return 0
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.levels[depth-1])
}

// Len returns the total number of indexed rows in O(1) — maintained by
// Add/Remove instead of rescanning every bucket.
func (ix *HashIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.rows
}
