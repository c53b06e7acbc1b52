// Package exec implements the physical operators executing the algebra of
// internal/algebra. Every operator speaks one protocol, BatchIterator: scan,
// filter, map, distinct, set operations, the restructuring operators ν / ν*
// / μ, and one join operator (Join) serving the flat join family (inner,
// semi, anti, left-outer) and the paper's nest join over four bucket
// sources: nested loops, a hash table, a persistent index and sorted runs.
// Every expression an operator embeds is compiled once into one closure form
// (batch_expr.go).
//
// As §6 ("Implementation") prescribes, the nest join is a simple
// modification of the join methods with two restrictions honored: an output
// tuple is emitted only after the entire matching group is known, and the
// build/inner side must be the right operand so output stays grouped by left
// tuples. Join makes that literal: the flat kinds and the nest join differ
// only in what is done with each left row's bucket, and the join methods
// only in where the bucket comes from.
package exec

import (
	"slices"
	"sync"

	"tmdb/internal/eval"
	"tmdb/internal/storage"
	"tmdb/internal/value"
)

// Protocol:
//
//   - Usage: Open, repeated NextBatch until ok=false, Close; operators are
//     single-use. NextBatch never returns an empty batch: ok=false is the
//     only end-of-input signal.
//   - A batch is owned by the operator that returned it and is valid only
//     until the next NextBatch or Close on that operator: the operators that
//     build their own batches (Join, Map, Filter, μ, the set operations)
//     borrow their output buffer from a pool shared by all queries (outBuf)
//     and give it back at Close, when it starts holding another query's
//     rows. Consumers copy the rows they retain (value.Value is an immutable
//     struct, so retaining a row is a struct copy — the batch's backing
//     slice is what gets reused), and never change the batch: nothing a
//     memo, hash table or result keeps is borrowed. The exception is a
//     source whose batches alias immutable rows and so stay valid for good:
//     TableScan (chunks of the table's row snapshot or pieces of
//     copy-on-write index buckets), EvalScan (of the evaluated collection)
//     and ν (of its grouped output) say so through the stableSource marker,
//     and a consumer may retain their batches without copying — the hash
//     build does (drainKeyed).
//   - Sources — table and evaluated scans, ν's output — emit zero-copy
//     batches of at most DefaultBatchSize rows; a table scan emits one
//     stored chunk or one piece of an index bucket per batch. Join stops
//     probing once its output reaches DefaultBatchSize and resumes at the
//     next left row, so it overshoots by at most one bucket's fanout and the
//     row budget, charged per batch, trips within that. μ emits one batch
//     per input batch: its fanout is bounded by the sets its input already
//     holds.
//   - Operators poll the governor once per batch (Ctx.checkBatch) or, in
//     per-row build and probe loops, once per checkEvery rows (Ctx.check);
//     slow per-row predicate evaluation is still covered by the evaluator's
//     own Check hook (every 256 eval steps). Results are canonicalized by
//     CollectBatches, which erases arrival order and duplicates, so how rows
//     are cut into batches never shows in a result. It is the one place a
//     result is deduplicated, and the planner tells it what the root
//     already guarantees (Rows): distinct rows are only sorted, and
//     canonical ones (strictly ascending) are collected as they arrive.

// DefaultBatchSize is the most rows of a batch a source emits. It bounds the
// rows between governor polls of a scan-fed pipeline. It is the capacity of
// a stored chunk, so a table scan's batches are the table's chunks.
const DefaultBatchSize = storage.ChunkRows

// Ctx carries what operators need to evaluate embedded TM expressions —
// the database (for table references inside predicates) and a shared
// evaluator (whose step counter aggregates expression-evaluation work) —
// plus the query's Governor, when it is governed at all (see govern.go).
type Ctx struct {
	DB *storage.DB
	Ev *eval.Evaluator
	// Gov enforces cancellation, deadline, and budgets; nil for ungoverned
	// queries (the free fast path).
	Gov *Governor
	// ticks spaces out the governor polls of check().
	ticks uint32
	// built is what the query's hash builds have charged so far, kept builds
	// served included; a memo fill records its own share (memo.go).
	built buildCharge
}

// NewCtx returns an ungoverned context over db with a fresh evaluator.
func NewCtx(db *storage.DB) *Ctx {
	return &Ctx{DB: db, Ev: eval.New(db)}
}

// NewCtxGoverned returns a context whose operators and naive evaluation
// observe gov (nil gov degrades to NewCtx). The evaluator's Check hook
// covers every eval-driven loop — naive plans, predicate re-checks, key
// evaluation — so deeply nested evaluation cancels without operator help.
func NewCtxGoverned(db *storage.DB, gov *Governor) *Ctx {
	c := &Ctx{DB: db, Ev: eval.New(db), Gov: gov}
	if gov != nil {
		c.Ev.Check = gov.Err
	}
	return c
}

// checkBatch is the per-batch governance poll of every operator loop: a
// direct governor poll (no tick mask — batches already space the polls),
// free for ungoverned queries.
func (c *Ctx) checkBatch() error {
	if c.Gov == nil {
		return nil
	}
	return c.Gov.Err()
}

// BatchIterator is the operator interface. Usage: Open, repeated NextBatch
// until ok=false, Close; single-use.
type BatchIterator interface {
	Open() error
	NextBatch() (rows []value.Value, ok bool, err error)
	Close() error
}

// chunks hands a row slice out as zero-copy batches of at most
// DefaultBatchSize rows — the emitting half of every source.
type chunks struct {
	rows []value.Value
}

// next returns the next chunk, or false once the rows are used up.
func (c *chunks) next() ([]value.Value, bool) {
	if len(c.rows) == 0 {
		return nil, false
	}
	n := min(len(c.rows), DefaultBatchSize)
	b := c.rows[:n:n]
	c.rows = c.rows[n:]
	return b, true
}

// rowBufs recycles output buffers across executions; one grown past
// maxPooledRows is left to the garbage collector rather than pinned. A
// pooled buffer holds no rows: its slots are cleared before it is put back.
var rowBufs = sync.Pool{New: func() any { return new([]value.Value) }}

const maxPooledRows = 4 * DefaultBatchSize

// outBuf is an operator's reused output batch. It is borrowed from rowBufs at
// the first reset and given back, cleared, at release (the operator's Close),
// so a tree compiled per execution reuses the buffers of earlier ones.
type outBuf struct {
	rows []value.Value
	p    *[]value.Value
}

// reset empties the buffer for the next batch and returns it.
func (b *outBuf) reset() []value.Value {
	if b.p == nil {
		b.p = rowBufs.Get().(*[]value.Value)
		b.rows = *b.p
	}
	b.rows = b.rows[:0]
	return b.rows
}

// release gives the buffer back to rowBufs, its whole capacity cleared (a
// failed batch may have written past its length), unless it grew past
// maxPooledRows; the operator's batches are invalid from here on.
func (b *outBuf) release() {
	if b.p != nil && cap(b.rows) <= maxPooledRows {
		clear(b.rows[:cap(b.rows)])
		*b.p = b.rows[:0]
		rowBufs.Put(b.p)
	}
	*b = outBuf{}
}

// drainRows opens in, copies every row it produces into one owned slice, and
// closes it: how operators that need their whole input (ν, a set operation's
// right side, a nested-loop join's right side) materialize it.
func drainRows(in BatchIterator) ([]value.Value, error) {
	if err := in.Open(); err != nil {
		return nil, err
	}
	defer in.Close()
	var rows []value.Value
	for {
		bt, ok, err := in.NextBatch()
		if err != nil || !ok {
			return rows, err
		}
		rows = append(rows, bt...)
	}
}

// Rows is what the root of an operator tree guarantees about the rows it
// emits, and so how much of canonicalization is left to the collector. The
// planner derives it when it compiles the tree (planner.Compile).
type Rows uint8

const (
	// AnyRows may repeat a row and arrive in any order: the collector keeps
	// the first of equal rows as it arrives and sorts the rows it kept.
	AnyRows Rows = iota
	// DistinctRows never repeat a row but arrive in any order: the collector
	// sorts them.
	DistinctRows
	// CanonicalRows arrive in canonical order, strictly ascending under
	// value.Compare: the collector wraps them as the set they already are.
	CanonicalRows
)

// CollectBatches drains a batch iterator into a canonical set value.
func CollectBatches(it BatchIterator) (value.Value, error) {
	return CollectBatchesGoverned(nil, it, AnyRows)
}

// CollectBatchesGoverned is CollectBatches under a governor, for a tree whose
// root guarantees rows: the one place a result is deduplicated. Every row
// the result keeps is accounted against the row budget as its batch is
// collected — its distinct rows, however often the root repeats one — and
// the cancel state is polled once per batch; a nil governor charges and
// polls nothing.
//
// The rows are gathered, deduplicated and sorted in scratch borrowed from
// collectors, and the result is their one copy at its exact size (none for
// ∅): the scratch is cleared and given back for the next query's rows.
func CollectBatchesGoverned(gov *Governor, it BatchIterator, rows Rows) (value.Value, error) {
	if err := it.Open(); err != nil {
		return value.Value{}, err
	}
	defer it.Close()
	kept := collectors.Get().(*distinctRows)
	defer kept.release()
	for {
		bt, ok, err := it.NextBatch()
		if err != nil {
			return value.Value{}, err
		}
		if !ok {
			break
		}
		n := len(bt)
		if rows == AnyRows {
			n = kept.add(bt)
		} else {
			kept.rows = append(kept.rows, bt...)
		}
		if gov != nil {
			if err := gov.AddRows(int64(n)); err != nil {
				return value.Value{}, err
			}
			if err := gov.Err(); err != nil {
				return value.Value{}, err
			}
		}
	}
	if rows != CanonicalRows {
		slices.SortFunc(kept.rows, value.Compare)
	}
	return value.CanonicalSet(slices.Clone(kept.rows)), nil
}

// collectors recycles the collector's scratch across queries; one grown past
// maxPooledRows rows (or a key past maxPooledKey bytes) is left to the
// garbage collector rather than pinned.
var collectors = sync.Pool{New: func() any { return new(distinctRows) }}

const maxPooledKey = 64 << 10

// distinctRows keeps the distinct rows of a stream, the first of equal rows
// in arrival order. index is an open-addressing table with linear probing
// whose entries hold a kept row's position+1 (0 is empty); its length is a
// power of two that doubles when the rows reach half of it. hashes holds
// each kept row's hash, of its canonical encoding (value.AppendKey) written
// into one reused scratch buffer, and rows whose hashes match are compared
// with value.Equal: no row's key bytes are kept.
type distinctRows struct {
	rows    []value.Value
	hashes  []uint64
	index   []int32
	scratch []byte
}

// release empties d and gives it back to collectors, unless it grew past
// the pool's caps.
func (d *distinctRows) release() {
	if cap(d.rows) > maxPooledRows || cap(d.scratch) > maxPooledKey {
		return
	}
	clear(d.rows)
	clear(d.index)
	d.rows, d.hashes = d.rows[:0], d.hashes[:0]
	collectors.Put(d)
}

// add keeps every row of bt equal to no row kept before and returns how many
// it kept.
func (d *distinctRows) add(bt []value.Value) int {
	before := len(d.rows)
	for _, v := range bt {
		d.scratch = value.AppendKey(d.scratch[:0], v)
		h := hashKey(d.scratch)
		if 2*(len(d.rows)+1) > len(d.index) {
			d.grow()
		}
		mask := uint64(len(d.index) - 1)
		i := h & mask
		for d.index[i] != 0 && !d.equal(d.index[i]-1, v, h) {
			i = (i + 1) & mask
		}
		if d.index[i] == 0 {
			d.rows, d.hashes = append(d.rows, v), append(d.hashes, h)
			d.index[i] = int32(len(d.rows))
		}
	}
	return len(d.rows) - before
}

// equal reports whether kept row r is v, whose hash is h.
func (d *distinctRows) equal(r int32, v value.Value, h uint64) bool {
	return d.hashes[r] == h && value.Equal(d.rows[r], v)
}

// grow doubles the index (or allocates the first one) and re-places every
// kept row from its stored hash.
func (d *distinctRows) grow() {
	d.index = make([]int32, max(minKeyIndex, 2*len(d.index)))
	mask := uint64(len(d.index) - 1)
	for r, h := range d.hashes {
		i := h & mask
		for d.index[i] != 0 {
			i = (i + 1) & mask
		}
		d.index[i] = int32(r) + 1
	}
}
