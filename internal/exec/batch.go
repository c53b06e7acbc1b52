package exec

import (
	"slices"

	"tmdb/internal/value"
)

// Vectorized execution: operators that move batches of up to N rows per call
// instead of one row per Next(). The batch protocol exists to amortize the
// two per-row costs that dominate B-series profiles — interface dispatch and
// governor polling — into per-batch costs, and to let hot operators run tight
// loops over row slices. Results are byte-identical to row-at-a-time
// execution because every query result passes through the set
// canonicalization in Collect/CollectBatches, which erases arrival order and
// duplicates.
//
// Protocol:
//
//   - A Batch is owned by the operator that returned it and is valid only
//     until the next NextBatch or Close on that operator. Consumers copy the
//     rows they retain (value.Value is an immutable struct, so retaining a
//     row is a struct copy — the batch's backing slice is what gets reused).
//   - NextBatch never returns an empty batch: ok=false is the only
//     end-of-input signal.
//   - Batched operators poll the governor once per batch (Ctx.checkBatch)
//     instead of once per checkEvery rows, and hit their fault-injection
//     points once per batch. MaxBatchSize caps the rows between polls so the
//     cancellation latency bound is preserved at any configured size; slow
//     per-row predicate evaluation is still covered by the evaluator's own
//     Check hook (every 256 eval steps), independent of batch size.
//   - Build-byte budgets are accounted per batch (the sum of the batch's
//     per-row charges), so a budget overrun is detected at the end of the
//     batch that exceeded it rather than on the exact row.

// DefaultBatchSize is the batch row capacity used when a size is not
// explicitly configured (Options.BatchSize = 0 with batching selected).
const DefaultBatchSize = 1024

// MaxBatchSize caps configured batch sizes: it bounds the rows processed
// between governor polls, preserving cancellation latency bounds.
const MaxBatchSize = 4096

// NormalizeBatchSize maps a requested size to an effective one: non-positive
// requests get the default, oversized ones are clamped to MaxBatchSize.
func NormalizeBatchSize(n int) int {
	if n <= 0 {
		return DefaultBatchSize
	}
	if n > MaxBatchSize {
		return MaxBatchSize
	}
	return n
}

// Batch carries up to one batch size worth of rows plus a columnar scratch
// arena for their encoded keys (filled on demand by encodeKeys, in the
// value.AppendKey encoding the hash join family keys on). The arena is
// columnar in the sense that all key bytes live in one contiguous buffer
// delimited by offsets, not one allocation per row.
//
// A batch may also carry a selection vector, MonetDB/X100-style: its rows are
// then Rows[sel[0]], Rows[sel[1]], … and row i's key is the sel[i]-th of the
// arena. Only the exchange's fragments carry one — each shares the routed
// batch's rows and key arena and selects its partition's positions — and
// only the hash build and probe kernels read fragments, through Len, row and
// Key; every batch an operator returns from NextBatch has no selection.
type Batch struct {
	Rows []value.Value
	keys []byte
	offs []uint32
	sel  []int32
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return len(b.Rows)
}

// row returns row i, through the selection vector if there is one.
func (b *Batch) row(i int) value.Value {
	if b.sel != nil {
		return b.Rows[b.sel[i]]
	}
	return b.Rows[i]
}

// reset clears the batch for refilling, retaining capacity.
func (b *Batch) reset() {
	b.Rows = b.Rows[:0]
	b.keys = b.keys[:0]
	b.offs = b.offs[:0]
	b.sel = nil
}

// Key returns row i's encoded key bytes; valid only after encodeKeys.
func (b *Batch) Key(i int) []byte {
	if b.sel != nil {
		i = int(b.sel[i])
	}
	return b.keys[b.offs[i]:b.offs[i+1]]
}

// encodeKeys fills the key arena with every row's encoded key. The encoder's
// scratch state and the batch arena are both reused across batches, so a
// steady-state batch encodes keys with zero allocations; a fresh arena is
// sized from the first key, which is exact for fixed-width keys.
func (b *Batch) encodeKeys(enc *keyEncoder) error {
	b.keys = b.keys[:0]
	b.offs = append(slices.Grow(b.offs[:0], len(b.Rows)+1), 0)
	for i, v := range b.Rows {
		buf, err := enc.appendKey(b.keys, v)
		if err != nil {
			return err
		}
		if i == 0 {
			buf = slices.Grow(buf, len(buf)*(len(b.Rows)-1))
		}
		b.keys = buf
		b.offs = append(b.offs, uint32(len(buf)))
	}
	return nil
}

// BatchIterator is the vectorized operator interface. Usage mirrors
// Iterator: Open, repeated NextBatch until ok=false, Close; single-use.
type BatchIterator interface {
	Open() error
	NextBatch() (b *Batch, ok bool, err error)
	Close() error
}

// checkBatch is the per-batch governance poll of every batched operator
// loop: a direct governor poll (no tick mask — batches already space the
// polls), free for ungoverned queries.
func (c *Ctx) checkBatch() error {
	if c.Gov == nil {
		return nil
	}
	return c.Gov.Err()
}

// RowsToBatch adapts a row iterator to the batch protocol, buffering up to
// Size rows per batch. It is how row operators (set operations, nest and
// unnest, NL and index joins) feed batch-native ones, in batched and row plans
// alike.
type RowsToBatch struct {
	It   Iterator
	Size int
	b    Batch
}

// Open opens the underlying iterator.
func (a *RowsToBatch) Open() error {
	a.Size = NormalizeBatchSize(a.Size)
	return a.It.Open()
}

// NextBatch buffers up to Size rows from the underlying iterator.
func (a *RowsToBatch) NextBatch() (*Batch, bool, error) {
	a.b.reset()
	for len(a.b.Rows) < a.Size {
		v, ok, err := a.It.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		a.b.Rows = append(a.b.Rows, v)
	}
	if len(a.b.Rows) == 0 {
		return nil, false, nil
	}
	return &a.b, true, nil
}

// Close closes the underlying iterator.
func (a *RowsToBatch) Close() error { return a.It.Close() }

// BatchToRows adapts a batch iterator to the row protocol, letting row-only
// consumers (and cold row operators above a batched subtree) drain it.
type BatchToRows struct {
	In  BatchIterator
	cur *Batch
	i   int
}

// Open opens the underlying batch iterator.
func (a *BatchToRows) Open() error {
	a.cur, a.i = nil, 0
	return a.In.Open()
}

// Next returns the next row of the current batch, fetching the next batch
// when it is exhausted.
func (a *BatchToRows) Next() (value.Value, bool, error) {
	for a.cur == nil || a.i >= a.cur.Len() {
		b, ok, err := a.In.NextBatch()
		if err != nil || !ok {
			return value.Value{}, false, err
		}
		a.cur, a.i = b, 0
	}
	v := a.cur.Rows[a.i]
	a.i++
	return v, true, nil
}

// Close closes the underlying batch iterator.
func (a *BatchToRows) Close() error {
	a.cur = nil
	return a.In.Close()
}

// CollectBatches drains a batch iterator into a canonical set value.
func CollectBatches(it BatchIterator) (value.Value, error) {
	return CollectBatchesGoverned(nil, it)
}

// CollectBatchesGoverned is the batched form of CollectGoverned: every batch
// of rows is accounted against the row budget (pre-deduplication) and the
// cancel state is polled once per batch.
func CollectBatchesGoverned(gov *Governor, it BatchIterator) (value.Value, error) {
	if err := it.Open(); err != nil {
		return value.Value{}, err
	}
	defer it.Close()
	b := value.NewSetBuilder(0)
	for {
		bt, ok, err := it.NextBatch()
		if err != nil {
			return value.Value{}, err
		}
		if !ok {
			break
		}
		if gov != nil {
			if err := gov.AddRows(int64(bt.Len())); err != nil {
				return value.Value{}, err
			}
			if err := gov.Err(); err != nil {
				return value.Value{}, err
			}
		}
		for _, v := range bt.Rows {
			b.Add(v)
		}
	}
	return b.Build(), nil
}
