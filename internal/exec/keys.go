package exec

import (
	"tmdb/internal/value"
)

// The allocation-lean key path of the hash join family: key expressions are
// evaluated per row (keyEncoder) and their canonical encodings appended onto a
// reusable buffer instead of materializing a value.Key string per row. Map
// lookups go through string(buf), which the Go compiler performs without
// allocating; only the first insertion of a distinct key pays a string
// allocation (see hashTable).

// hashTable is an exact (collision-free) multimap from encoded key bytes to
// row buckets. The indirection through idx exists so that adding a row to an
// existing bucket never converts the byte key to a string: the idx lookup
// with string(key) is allocation-free, and buckets are addressed by slot.
type hashTable struct {
	idx     map[string]int
	buckets [][]value.Value
}

func newHashTable(capacity int) *hashTable {
	return &hashTable{idx: make(map[string]int, capacity)}
}

// add appends v to the bucket for key, creating it if needed. Only the first
// row of a distinct key allocates (the retained map key string).
func (t *hashTable) add(key []byte, v value.Value) {
	if i, ok := t.idx[string(key)]; ok {
		t.buckets[i] = append(t.buckets[i], v)
		return
	}
	t.idx[string(key)] = len(t.buckets)
	t.buckets = append(t.buckets, []value.Value{v})
}

// bucket returns the rows stored under key (nil if none). Allocation-free.
func (t *hashTable) bucket(key []byte) []value.Value {
	if i, ok := t.idx[string(key)]; ok {
		return t.buckets[i]
	}
	return nil
}

// hashKeyBytes hashes an encoded key (FNV-1a). It is deterministic across
// runs — unlike maphash — so parallel partition assignment, and therefore
// the bytes each worker sees, is reproducible for a given input.
func hashKeyBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
