package exec

import (
	"slices"

	"tmdb/internal/eval"
	"tmdb/internal/faultinject"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Partitioned execution of the hash join family on the morsel scheduler (see
// sched.go), the path HashJoin and HashNestJoin take at Degree >= 2: the
// build (right) and probe (left) inputs are partitioned by key hash across
// Degree partitions through the scheduler's exchange pump, then each
// partition's hash build runs as one morsel and each probe-side fragment — at
// most one input batch of rows by construction — runs as its own morsel with
// a statically assigned output slot. Morsels start on their partition's home
// worker and can be stolen by idle workers, so a skewed partition does not
// serialize on one goroutine. Results are correct because rows that can ever
// match share identical key bytes and therefore land in the same partition;
// results are deterministic because output slots are streamed in static
// (partition, fragment) order and every query result passes through the set
// canonicalization in exec.Collect, which erases arrival order — so the final
// value is bit-identical to serial execution at any degree and any steal
// schedule.
//
// Each worker runs over a forked Ctx with its own evaluator, so the
// EvalSteps counter is sharded per worker — no races, no false sharing —
// and folded back into the parent by the scheduler.
//
// The exchange routes positions, not rows. The feeder copies each input
// batch's rows once into an owned slice (the source's batch is only valid
// until its next NextBatch); a pump worker encodes every row's key once into
// one arena for the batch and hands each partition a fragment — a Batch that
// shares the owned rows and the arena and selects its partition's positions
// through a selection vector. Build and probe read rows and keys through the
// fragments, so a row is copied once on the way in, once into its hash
// bucket on the build side, and a key is evaluated once with zero string
// allocations on the probe side.

// minParallelRows is the input size below which the partitioned operators
// run their morsels inline on the calling goroutine: the partitioned
// algorithm (and thus the result) is unchanged, only the goroutine fan-out
// is skipped where it could not pay for itself.
const minParallelRows = 256

// partitionSet is the result of the exchange: parts[p] holds partition p's
// fragments in input-sequence order, making per-partition row order
// deterministic regardless of which pump worker routed which batch.
type partitionSet struct {
	parts [][]Batch
	total int
}

// fork returns a context over the same database with a fresh evaluator, so
// parallel workers never share a step counter; the scheduler folds the
// forked counters back into the parent once the workers join. The Governor
// is shared, not forked: cancellation and budget accounting are
// query-global, and its methods are atomic precisely so workers need no
// coordination. The Scheduler rides along for the same reason — its
// counters are query-global atomics.
func (c *Ctx) fork() *Ctx {
	f := &Ctx{DB: c.DB, Ev: eval.New(c.DB), Gov: c.Gov, Sched: c.Sched}
	if c.Gov != nil {
		f.Ev.Check = c.Gov.Err
	}
	return f
}

// firstError returns the lowest-indexed non-nil error, keeping error
// reporting deterministic under concurrency.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// seqRows is one feeder send: a batch's rows copied into an owned slice,
// tagged with the batch's input sequence number so partition contents can be
// reassembled in input order regardless of which pump worker handled which
// batch.
type seqRows struct {
	seq  int
	rows []value.Value
}

// seqFragment is one producer's routing of one batch into one partition.
type seqFragment struct {
	Batch
	seq int
}

// routeBatch routes one fed batch into per-partition fragments without
// copying its rows: it encodes each row's key once (the per-row hot cost the
// pump parallelizes), assigns the row its partition, and appends one fragment
// per non-empty partition to acc — sharing sb.rows and the key arena, with
// the partition's positions carved from one selection array. part is a
// reusable per-row partition buffer, returned extended for reuse.
func routeBatch(enc *keyEncoder, sb seqRows, nparts int, acc [][]seqFragment, part []int32) ([]int32, error) {
	b := Batch{Rows: sb.rows}
	if err := b.encodeKeys(enc); err != nil {
		return part, err
	}
	counts := make([]int, nparts)
	part = part[:0]
	for i := range b.Rows {
		p := int32(hashKeyBytes(b.Key(i)) % uint64(nparts))
		part = append(part, p)
		counts[p]++
	}
	sels := make([][]int32, nparts)
	backing := make([]int32, len(part))
	for p, off := 0, 0; p < nparts; p++ {
		sels[p] = backing[off : off : off+counts[p]]
		off += counts[p]
	}
	for i, p := range part {
		sels[p] = append(sels[p], int32(i))
	}
	for p, sel := range sels {
		if len(sel) > 0 {
			fr := b
			fr.sel = sel
			acc[p] = append(acc[p], seqFragment{Batch: fr, seq: sb.seq})
		}
	}
	return part, nil
}

// assemblePartitions merges per-producer fragment accumulators into a
// partitionSet, ordering each partition's fragments by input sequence so the
// partition contents are deterministic — input order filtered by partition —
// independent of worker scheduling.
func assemblePartitions(accs [][][]seqFragment, nparts, total int) *partitionSet {
	ps := &partitionSet{parts: make([][]Batch, nparts), total: total}
	for p := 0; p < nparts; p++ {
		var sfs []seqFragment
		for _, acc := range accs {
			sfs = append(sfs, acc[p]...)
		}
		slices.SortFunc(sfs, func(a, b seqFragment) int { return a.seq - b.seq })
		for _, sf := range sfs {
			ps.parts[p] = append(ps.parts[p], sf.Batch)
		}
	}
	return ps
}

// partitionInput drains src and routes every row to one of nparts partitions
// by the hash of its encoded key — the exchange. Rows move from the feeder
// (the calling goroutine, which owns the source iterator) to the scheduler's
// pump workers one batch-sized morsel per send; workers encode keys on
// forked contexts and route rows to per-partition fragments. Inputs that end
// below minParallelRows are routed inline with no goroutine fan-out. The
// source is always closed before returning; the workers' evaluation steps
// are folded into c.
func partitionInput(c *Ctx, s *Scheduler, src BatchIterator, keys []tmql.Expr, varName string, nparts int) (*partitionSet, error) {
	if err := src.Open(); err != nil {
		src.Close()
		return nil, err
	}
	// feed pulls the next batch, polls the governor, and hits the exchange
	// fault point — once per batch.
	total, seq := 0, 0
	feed := func() (seqRows, bool, error) {
		bt, ok, err := src.NextBatch()
		if err != nil || !ok {
			return seqRows{}, false, err
		}
		if err := c.checkBatch(); err != nil {
			return seqRows{}, false, err
		}
		if err := faultinject.Hit(faultinject.PointPartitionSend); err != nil {
			return seqRows{}, false, err
		}
		sb := seqRows{seq: seq, rows: append([]value.Value(nil), bt.Rows...)}
		seq++
		total += len(sb.rows)
		return sb, true, nil
	}
	// Buffer until the input proves large enough to pay for goroutines.
	var pending []seqRows
	var feedErr error
	for total < minParallelRows {
		sb, ok, err := feed()
		if err != nil {
			feedErr = err
			break
		}
		if !ok {
			break
		}
		pending = append(pending, sb)
	}
	if feedErr != nil || total < minParallelRows {
		// Small input (or an early feed error): route what arrived inline on
		// a single forked context — partitioning, and thus the result, is
		// unchanged; only the fan-out is skipped.
		src.Close()
		ctx := c.fork()
		enc := newKeyEncoder(ctx, keys, varName)
		acc := make([][]seqFragment, nparts)
		var part []int32
		var err error
		for _, sb := range pending {
			if part, err = routeBatch(enc, sb, nparts, acc, part); err != nil {
				break
			}
		}
		c.Ev.Steps += ctx.Ev.Steps
		if feedErr == nil {
			feedErr = err
		}
		if feedErr != nil {
			return nil, feedErr
		}
		return assemblePartitions([][][]seqFragment{acc}, nparts, total), nil
	}
	// Large input: replay the buffered batches and stream the rest through
	// the scheduler's pump. Per-worker accumulators and key encoders are
	// created lazily — each index is only ever touched by its own worker.
	pi := 0
	feedAll := func() (seqRows, bool, error) {
		if pi < len(pending) {
			sb := pending[pi]
			pi++
			return sb, true, nil
		}
		return feed()
	}
	accs := make([][][]seqFragment, s.Workers())
	encs := make([]*keyEncoder, s.Workers())
	parts := make([][]int32, s.Workers())
	err := s.pump(c, feedAll, func(w int, ctx *Ctx, sb seqRows) error {
		if accs[w] == nil {
			accs[w] = make([][]seqFragment, nparts)
			encs[w] = newKeyEncoder(ctx, keys, varName)
		}
		var rerr error
		parts[w], rerr = routeBatch(encs[w], sb, nparts, accs[w], parts[w])
		return rerr
	})
	src.Close()
	if err != nil {
		return nil, err
	}
	filled := accs[:0]
	for _, acc := range accs {
		if acc != nil {
			filled = append(filled, acc)
		}
	}
	return assemblePartitions(filled, nparts, total), nil
}

// runPartitioned runs one partitioned hash join on the morsel scheduler and
// returns its output as the non-empty probe slots in static (partition,
// fragment) order: exchange-partition both inputs through the pump, then run
// two scheduled phases with a barrier between — build (one morsel per
// partition) and probe (one morsel per (partition, fragment), each with its
// own row probe from prober). Inputs below minParallelRows run the same
// morsels inline on one worker. nest is as in hashCore.open.
func runPartitioned(c *Ctx, degree int, l, r BatchIterator,
	lkeys, rkeys []tmql.Expr, lvar, rvar string, nest bool, prober func(*Ctx) rowProbe) ([][]value.Value, error) {
	s := c.scheduler(degree, 0)
	rp, err := partitionInput(c, s, r, rkeys, rvar, degree)
	if err != nil {
		return nil, err
	}
	lp, err := partitionInput(c, s, l, lkeys, lvar, degree)
	if err != nil {
		return nil, err
	}
	maxWorkers := s.Workers()
	if rp.total+lp.total < minParallelRows {
		maxWorkers = 1
	}

	// Build phase: one morsel per partition, homed on partition index.
	tables := make([]*hashTable, degree)
	btasks := make([]morselTask, degree)
	for p := 0; p < degree; p++ {
		btasks[p] = morselTask{home: p, fn: func(ctx *Ctx) error {
			t, err := buildTable(ctx, rp.parts[p])
			tables[p] = t
			return err
		}}
	}
	if err := s.run(c, btasks, maxWorkers); err != nil {
		return nil, err
	}

	// Probe phase: one morsel per (partition, fragment). A fragment holds at
	// most one input batch of rows, so this is the morsel granularity that
	// lets idle workers steal into a skewed partition; each morsel writes a
	// statically assigned slot, so stealing can never reorder output. A nest
	// join's slot starts with room for exactly its output, one row per probe
	// row; a flat join's starts empty, so a selective join keeps no
	// probe-sized slot alive.
	slots := make([][][]value.Value, degree)
	var ptasks []morselTask
	for p := 0; p < degree; p++ {
		slots[p] = make([][]value.Value, len(lp.parts[p]))
		for fi := range lp.parts[p] {
			ptasks = append(ptasks, morselTask{home: p, fn: func(ctx *Ctx) error {
				fr := &lp.parts[p][fi]
				var res []value.Value
				if nest {
					res = make([]value.Value, 0, fr.Len())
				}
				res, err := probeRows(ctx, tables[p], fr, prober(ctx), res)
				slots[p][fi] = res
				return err
			}})
		}
	}
	if err := s.run(c, ptasks, maxWorkers); err != nil {
		return nil, err
	}
	var out [][]value.Value
	for _, ps := range slots {
		for _, fo := range ps {
			if len(fo) > 0 {
				out = append(out, fo)
			}
		}
	}
	return out, nil
}
