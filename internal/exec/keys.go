package exec

import (
	"bytes"
	"slices"

	"tmdb/internal/faultinject"
	"tmdb/internal/value"
)

// The allocation-lean key path of the join family: key expressions are
// evaluated per row (keyEncoder) and their canonical encodings appended onto
// a reused scratch buffer (probe side) or one contiguous arena per build run
// (keyed) instead of materializing a value.Key string per row. Map lookups go
// through string(key), which the Go compiler performs without allocating;
// only the first insertion of a distinct key pays a string allocation. The
// table itself is built in two passes (buildTable) so that every bucket is a
// contiguous run of one flat row slice: no per-bucket slice, and no append
// growth. The sort-merge method keys its sorted runs the same way.

// keyed is an owned run of build rows with every row's encoded key, all key
// bytes in one arena delimited by offsets — not one allocation per row.
type keyed struct {
	rows []value.Value
	keys []byte
	offs []uint32
}

// newKeyed copies rows and encodes each one's key with enc. The arena is
// sized from the first key, which is exact for fixed-width keys.
func newKeyed(rows []value.Value, enc keyEncoder) (keyed, error) {
	k := keyed{rows: slices.Clone(rows), offs: make([]uint32, 1, len(rows)+1)}
	for i, v := range k.rows {
		buf, err := enc.appendKey(k.keys, v)
		if err != nil {
			return keyed{}, err
		}
		if i == 0 {
			buf = slices.Grow(buf, len(buf)*(len(rows)-1))
		}
		k.keys = buf
		k.offs = append(k.offs, uint32(len(buf)))
	}
	return k, nil
}

// key returns row i's encoded key.
func (k *keyed) key(i int) []byte {
	return k.keys[k.offs[i]:k.offs[i+1]]
}

// drainKeyed opens in, drains it into keyed copies of its batches, each
// row's key encoded once, and closes it. A non-nil gate runs once per batch,
// before the batch's keys are encoded, with the batch's row count.
func drainKeyed(in BatchIterator, enc keyEncoder, gate func(rows int) error) ([]keyed, error) {
	if err := in.Open(); err != nil {
		return nil, err
	}
	defer in.Close()
	var owned []keyed
	for {
		bt, ok, err := in.NextBatch()
		if err != nil || !ok {
			return owned, err
		}
		if gate != nil {
			if err := gate(len(bt)); err != nil {
				return nil, err
			}
		}
		k, err := newKeyed(bt, enc)
		if err != nil {
			return nil, err
		}
		owned = append(owned, k)
	}
}

// sortGate is the per-batch gate of a sorted run: one governor poll, the
// sort.build fault point, and the flat per-row build overhead charged for
// all of the batch's rows in one budget call.
func (c *Ctx) sortGate(rows int) error {
	if err := c.checkBatch(); err != nil {
		return err
	}
	if err := faultinject.Hit(faultinject.PointSortBuild); err != nil {
		return err
	}
	if c.Gov == nil {
		return nil
	}
	return c.Gov.AddBuildBytes(int64(rows) * buildRowOverhead)
}

// sortRun drains in through sortGate and returns its rows stably sorted by
// encoded key, with each row's key: the sort-merge join's input.
func sortRun(c *Ctx, in BatchIterator, enc keyEncoder) ([]value.Value, [][]byte, error) {
	bs, err := drainKeyed(in, enc, c.sortGate)
	if err != nil {
		return nil, nil, err
	}
	type keyedRow struct {
		key []byte
		v   value.Value
	}
	n := 0
	for _, b := range bs {
		n += len(b.rows)
	}
	all := make([]keyedRow, 0, n)
	for _, b := range bs {
		for i, v := range b.rows {
			all = append(all, keyedRow{b.key(i), v})
		}
	}
	slices.SortStableFunc(all, func(a, b keyedRow) int { return bytes.Compare(a.key, b.key) })
	rows, keys := make([]value.Value, len(all)), make([][]byte, len(all))
	for i, r := range all {
		rows[i], keys[i] = r.v, r.key
	}
	return rows, keys, nil
}

// hashTable is an exact (collision-free) multimap from encoded key bytes to
// row buckets. idx maps a key to its slot; slot s's bucket is
// rows[start[s]:start[s+1]], the rows of that key in input order.
type hashTable struct {
	idx   map[string]int32
	rows  []value.Value
	start []int32
}

// buildTable is the build kernel: it builds one table from the keyed runs
// bs. Pass 1 gates every row — the governor check, the hash.build fault
// point and the build-budget charge — and assigns it its key's slot,
// counting rows per slot; pass 2 places each row at its slot's next position
// in one flat row slice.
func buildTable(c *Ctx, bs []keyed) (*hashTable, error) {
	n := 0
	for i := range bs {
		n += len(bs[i].rows)
	}
	t := &hashTable{idx: make(map[string]int32)}
	slots := make([]int32, 0, n)
	var counts []int32
	for bi := range bs {
		b := &bs[bi]
		for i := range b.rows {
			if err := c.check(); err != nil {
				return nil, err
			}
			if err := faultinject.Hit(faultinject.PointHashBuild); err != nil {
				return nil, err
			}
			key := b.key(i)
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
		for _, row := range bs[bi].rows {
			s := slots[j]
			t.rows[next[s]] = row
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
