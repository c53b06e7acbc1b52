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
//     until the next NextBatch or Close on that operator. Consumers copy the
//     rows they retain (value.Value is an immutable struct, so retaining a
//     row is a struct copy — the batch's backing slice is what gets reused),
//     and never change the batch. The exception is a source whose batches
//     alias immutable rows and so stay valid for good: TableScan (chunks
//     of the table's row snapshot or pieces of copy-on-write index
//     buckets), EvalScan (of the evaluated collection)
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
//     are cut into batches never shows in a result. A tree the planner
//     vouches for as canonical (strictly ascending rows) is collected as it
//     arrives, without the sort.

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

// CollectBatches drains a batch iterator into a canonical set value.
func CollectBatches(it BatchIterator) (value.Value, error) {
	return CollectBatchesGoverned(nil, it, false)
}

// CollectBatchesGoverned is CollectBatches under a governor: every batch of
// rows added to the result set is accounted against the row budget
// (pre-deduplication — the budget bounds produced work, not distinct output)
// and the cancel state is polled once per batch. A nil governor makes it
// plain CollectBatches. canonical says the tree emits its rows in canonical
// order, strictly ascending (the planner derives it when it compiles the
// tree): the rows are then appended and wrapped as the set they already
// are, with no sort and no deduplication.
func CollectBatchesGoverned(gov *Governor, it BatchIterator, canonical bool) (value.Value, error) {
	if err := it.Open(); err != nil {
		return value.Value{}, err
	}
	defer it.Close()
	var rows []value.Value
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
			if err := gov.AddRows(int64(len(bt))); err != nil {
				return value.Value{}, err
			}
			if err := gov.Err(); err != nil {
				return value.Value{}, err
			}
		}
		if canonical {
			rows = append(rows, bt...)
			continue
		}
		b.AddAll(bt)
	}
	if canonical {
		return value.CanonicalSet(rows), nil
	}
	return b.Build(), nil
}
