package exec

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"slices"

	"tmdb/internal/faultinject"
	"tmdb/internal/value"
)

// The allocation-lean key path of every keyed operator: key expressions are
// evaluated per row (keyEncoder) and their canonical encodings appended onto
// a reused scratch buffer, then stored length-prefixed in byte chunks,
// instead of materializing a value.Key string per row. One exact key table
// (keyTable) maps encoded keys to dense slots for the hash join's build and
// probe, DISTINCT, ν's groups and the set operations: open addressing over a
// pointer-free []int32, one stored hash per distinct key, and keys compared
// in place in their chunk, so neither a distinct key nor a row costs an
// allocation of its own and the GC has almost no pointers to scan. The hash
// table is built in two passes (buildTable) so that every bucket is a
// contiguous run of one flat row slice: no per-bucket slice, and no append
// growth. The sort-merge method keys its sorted runs the same way.

// appendKeyEntry appends key to chunk as one entry: its uvarint length, then
// its bytes.
func appendKeyEntry(chunk, key []byte) []byte {
	return append(binary.AppendUvarint(chunk, uint64(len(key))), key...)
}

// keyEntry returns the key of the entry at off in chunk and the offset of
// the entry after it.
func keyEntry(chunk []byte, off uint32) (key []byte, next uint32) {
	n, w := binary.Uvarint(chunk[off:])
	lo := off + uint32(w)
	return chunk[lo : lo+uint32(n)], lo + uint32(n)
}

// keySeed seeds every key table's hash. Slots are numbered in first-seen
// order, so no output depends on it.
var keySeed = maphash.MakeSeed()

// hashKey is the key tables' hash of an encoded key.
func hashKey(key []byte) uint64 { return maphash.Bytes(keySeed, key) }

const (
	// minKeyIndex is the smallest index a key table allocates; a power of
	// two.
	minKeyIndex = 8
	// keyChunkBytes is the size past which an interning key table starts a
	// new chunk rather than growing its first one, and the size of every
	// later chunk.
	keyChunkBytes = 32 << 10
)

// keyTable is an exact (collision-free) map from encoded keys to dense slot
// ids, numbered 0, 1, … in first-seen order. index is an open-addressing
// table with linear probing whose entries hold slot+1 (0 is empty); its
// length is a power of two that doubles when the distinct keys reach half
// of it, so its size follows the distinct keys. slots holds each slot's
// hash, so a mismatch almost never reaches a byte compare, and where its key
// is: an entry of one of chunks. The chunks are the caller's — a drained
// input's key arenas (buildTable) — or the table's own, filled by intern.
type keyTable struct {
	chunks [][]byte
	index  []int32
	slots  []keySlot
}

// keySlot is one distinct key: its hash and its entry's place in the chunks.
type keySlot struct {
	hash       uint64
	chunk, off uint32
}

// find returns key's slot, or -1 if key is absent. Allocation-free.
func (t *keyTable) find(key []byte) int32 {
	return t.lookup(key, hashKey(key))
}

// lookup is find with key's hash h supplied.
func (t *keyTable) lookup(key []byte, h uint64) int32 {
	if len(t.index) == 0 {
		return -1
	}
	mask := uint64(len(t.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return -1
		}
		if sl := &t.slots[e-1]; sl.hash == h {
			if k, _ := keyEntry(t.chunks[sl.chunk], sl.off); bytes.Equal(k, key) {
				return e - 1
			}
		}
	}
}

// insert returns the slot of key, whose hash is h and whose entry is at off
// in chunk c, assigning it the next slot if no earlier key equals it; added
// reports which.
func (t *keyTable) insert(key []byte, h uint64, c, off uint32) (slot int32, added bool) {
	if s := t.lookup(key, h); s >= 0 {
		return s, false
	}
	return t.add(h, c, off), true
}

// add assigns the next slot to an absent key with hash h whose entry is at
// off in chunk c.
func (t *keyTable) add(h uint64, c, off uint32) int32 {
	if 2*(len(t.slots)+1) > len(t.index) {
		t.grow()
	}
	s := int32(len(t.slots))
	t.slots = append(t.slots, keySlot{hash: h, chunk: c, off: off})
	t.place(s)
	return s
}

// intern returns key's slot, appending a copy of key to the table's own
// chunks if it is new; added reports which.
func (t *keyTable) intern(key []byte) (slot int32, added bool) {
	h := hashKey(key)
	if s := t.lookup(key, h); s >= 0 {
		return s, false
	}
	c := t.chunkFor(len(key) + binary.MaxVarintLen32)
	off := uint32(len(t.chunks[c]))
	t.chunks[c] = appendKeyEntry(t.chunks[c], key)
	return t.add(h, uint32(c), off), true
}

// chunkFor returns the own chunk that takes the next key entry of at most
// need bytes. The first chunk starts with room for a few short keys and
// grows in place until it reaches keyChunkBytes; after that, an entry that
// does not fit the last chunk opens a new one, so no later chunk is ever
// copied.
func (t *keyTable) chunkFor(need int) int {
	last := len(t.chunks) - 1
	switch {
	case last < 0:
		t.chunks = append(t.chunks, make([]byte, 0, max(64, need)))
	case len(t.chunks[last])+need <= cap(t.chunks[last]) || last == 0 && len(t.chunks[0]) < keyChunkBytes:
		return last
	default:
		t.chunks = append(t.chunks, make([]byte, 0, max(keyChunkBytes, need)))
	}
	return len(t.chunks) - 1
}

// grow doubles the index (or allocates the first one), gives the slots room
// for the distinct keys the new index admits, and re-places every slot from
// its stored hash.
func (t *keyTable) grow() {
	t.index = make([]int32, max(minKeyIndex, 2*len(t.index)))
	t.slots = append(make([]keySlot, 0, len(t.index)/2), t.slots...)
	for s := range t.slots {
		t.place(int32(s))
	}
}

// place puts slot s at the first empty index entry from its hash's home.
func (t *keyTable) place(s int32) {
	mask := uint64(len(t.index) - 1)
	i := t.slots[s].hash & mask
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = s + 1
}

// stableSource is implemented by the sources whose batches alias immutable
// rows — a stored table's snapshot, an evaluated collection, ν's grouped
// output — and stay valid after the next NextBatch and after Close: a
// consumer may retain them without copying.
type stableSource interface {
	stableBatches()
}

// keyedRun is a drained input: its batches in input order, and for each
// batch one key chunk holding every row's encoded key as consecutive
// entries (appendKeyEntry), sized once — not one allocation per row.
type keyedRun struct {
	batches [][]value.Value
	keys    [][]byte
}

// len returns the run's row count.
func (r *keyedRun) len() int {
	n := 0
	for _, b := range r.batches {
		n += len(b)
	}
	return n
}

// drainKeyed opens in, drains it into a keyed run, each row's key encoded
// once, and closes it. A stable source's batches are retained as emitted,
// any other source's are copied. A non-nil gate runs once per batch, before
// the batch's keys are encoded, with the batch's row count.
func drainKeyed(in BatchIterator, enc keyEncoder, gate func(rows int) error) (keyedRun, error) {
	if err := in.Open(); err != nil {
		return keyedRun{}, err
	}
	var run keyedRun
	defer in.Close()
	_, stable := in.(stableSource)
	scratch := make([]byte, 0, 64)
	for {
		bt, ok, err := in.NextBatch()
		if err != nil || !ok {
			return run, err
		}
		if gate != nil {
			if err := gate(len(bt)); err != nil {
				return keyedRun{}, err
			}
		}
		if !stable {
			bt = slices.Clone(bt)
		}
		var chunk []byte
		for i, v := range bt {
			if scratch, err = enc.appendKey(scratch[:0], v); err != nil {
				return keyedRun{}, err
			}
			chunk = appendKeyEntry(chunk, scratch)
			if i == 0 {
				// Sized from the first key: exact for fixed-width keys.
				chunk = slices.Grow(chunk, len(chunk)*(len(bt)-1))
			}
		}
		run.batches = append(run.batches, bt)
		run.keys = append(run.keys, chunk)
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
	run, err := drainKeyed(in, enc, c.sortGate)
	if err != nil {
		return nil, nil, err
	}
	type keyedRow struct {
		key []byte
		v   value.Value
	}
	all := make([]keyedRow, 0, run.len())
	for bi, b := range run.batches {
		off := uint32(0)
		for _, v := range b {
			var key []byte
			key, off = keyEntry(run.keys[bi], off)
			all = append(all, keyedRow{key, v})
		}
	}
	slices.SortStableFunc(all, func(a, b keyedRow) int { return bytes.Compare(a.key, b.key) })
	rows, keys := make([]value.Value, len(all)), make([][]byte, len(all))
	for i, r := range all {
		rows[i], keys[i] = r.v, r.key
	}
	return rows, keys, nil
}

// hashTable is an exact multimap from encoded key bytes to row buckets: slot
// s's bucket is rows[start[s]:start[s+1]], the rows of slot s's key in input
// order. It is read-only once built, so a table kept in a snapshot's memo
// serves concurrent queries.
type hashTable struct {
	keys  keyTable
	rows  []value.Value
	start []int32
	// charge is what filling a kept table charged, its nested builds
	// included; zero for a table built for one query.
	charge buildCharge
}

// buildTable is the build kernel: it builds one table from the keyed run,
// whose key chunks the table keeps. Pass 1 gates every row — the governor
// check, the hash.build fault point and the build-budget charge, also
// recorded in the query's build charge (Ctx.built) — and assigns it its
// key's slot; pass 2 places each row at its slot's next position in one flat
// row slice.
func buildTable(c *Ctx, run keyedRun) (*hashTable, error) {
	n := run.len()
	t := &hashTable{keys: keyTable{chunks: run.keys}}
	slots := make([]int32, 0, n)
	for bi, b := range run.batches {
		off := uint32(0)
		for range b {
			if err := c.check(); err != nil {
				return nil, err
			}
			if err := faultinject.Hit(faultinject.PointHashBuild); err != nil {
				return nil, err
			}
			key, next := keyEntry(run.keys[bi], off)
			if err := c.addBuild(len(key)); err != nil {
				return nil, err
			}
			s, _ := t.keys.insert(key, hashKey(key), uint32(bi), off)
			slots = append(slots, s)
			off = next
		}
	}
	c.built.sites++
	k := len(t.keys.slots)
	t.start = make([]int32, k+1)
	for _, s := range slots {
		t.start[s+1]++
	}
	for s := range k {
		t.start[s+1] += t.start[s]
	}
	next := make([]int32, k) // each slot's next free position
	copy(next, t.start)
	t.rows = make([]value.Value, n)
	j := 0
	for _, b := range run.batches {
		for _, row := range b {
			s := slots[j]
			t.rows[next[s]] = row
			next[s]++
			j++
		}
	}
	return t, nil
}

// bucket returns the rows stored under key (nil if none) and key's slot (-1
// if none). Allocation-free.
func (t *hashTable) bucket(key []byte) ([]value.Value, int32) {
	s := t.keys.find(key)
	if s < 0 {
		return nil, s
	}
	return t.slotRows(s), s
}

// slotRows returns slot s's bucket.
func (t *hashTable) slotRows(s int32) []value.Value {
	lo, hi := t.start[s], t.start[s+1]
	return t.rows[lo:hi:hi]
}
