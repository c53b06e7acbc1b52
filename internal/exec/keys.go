package exec

import (
	"tmdb/internal/faultinject"
	"tmdb/internal/value"
)

// The allocation-lean key path of the hash join family: key expressions are
// evaluated per row (keyEncoder) and their canonical encodings appended onto a
// batch's key arena instead of materializing a value.Key string per row. Map
// lookups go through string(key), which the Go compiler performs without
// allocating; only the first insertion of a distinct key pays a string
// allocation. The table itself is built in two passes (buildTable) so that
// every bucket is a contiguous run of one flat row slice: no per-bucket slice,
// and no append growth.

// hashTable is an exact (collision-free) multimap from encoded key bytes to
// row buckets. idx maps a key to its slot; slot s's bucket is
// rows[start[s]:start[s+1]], the rows of that key in input order.
type hashTable struct {
	idx   map[string]int32
	rows  []value.Value
	start []int32
}

// buildTable is the build kernel: it builds one table from the rows of bs,
// whose keys are encoded. Pass 1 gates every row — the governor check, the
// hash.build fault point and the build-budget charge — and assigns it its
// key's slot, counting rows per slot; pass 2 places each row at its slot's
// next position in one flat row slice.
func buildTable(c *Ctx, bs []Batch) (*hashTable, error) {
	n := 0
	for i := range bs {
		n += bs[i].Len()
	}
	t := &hashTable{idx: make(map[string]int32)}
	slots := make([]int32, 0, n)
	var counts []int32
	for bi := range bs {
		b := &bs[bi]
		for i := 0; i < b.Len(); i++ {
			if err := c.check(); err != nil {
				return nil, err
			}
			if err := faultinject.Hit(faultinject.PointHashBuild); err != nil {
				return nil, err
			}
			key := b.Key(i)
			if err := c.addBuild(len(key)); err != nil {
				return nil, err
			}
			s, ok := t.idx[string(key)]
			if !ok {
				s = int32(len(counts))
				t.idx[string(key)] = s
				counts = append(counts, 0)
			}
			counts[s]++
			slots = append(slots, s)
		}
	}
	t.start = make([]int32, len(counts)+1)
	for s, k := range counts {
		t.start[s+1] = t.start[s] + k
	}
	next := counts // reused as each slot's next free position
	copy(next, t.start)
	t.rows = make([]value.Value, n)
	j := 0
	for bi := range bs {
		b := &bs[bi]
		for i := 0; i < b.Len(); i++ {
			s := slots[j]
			t.rows[next[s]] = b.row(i)
			next[s]++
			j++
		}
	}
	return t, nil
}

// bucket returns the rows stored under key (nil if none). Allocation-free.
func (t *hashTable) bucket(key []byte) []value.Value {
	if s, ok := t.idx[string(key)]; ok {
		lo, hi := t.start[s], t.start[s+1]
		return t.rows[lo:hi:hi]
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
