package exec

import (
	"fmt"
	"slices"

	"tmdb/internal/algebra"
	"tmdb/internal/faultinject"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// The hash join family is two operators: HashJoin (inner, semi, anti and
// left-outer) and HashNestJoin. The right input is always the build side and
// the left probes it. For the regular join one would pick the smaller operand
// to build; the family fixes build = right because the nest join shares its
// shape, and §6 requires the right operand to be the build table whenever the
// key is not unique on the right. A residual predicate (the non-equi
// remainder of the join condition) is re-checked against each bucket
// candidate.
//
// Degree selects how an operator runs, not which operator it is. Below 2 the
// right input's batches are built into one table and each left batch is
// probed as it arrives. At 2 or more both inputs are exchanged by key hash
// across Degree partitions, then built and probed as morsels on the query's
// scheduler (see parallel.go). Either way every row goes through the same
// build kernel (buildTable) and probe kernel (probeRows) over key-encoded
// batches, with keys, residuals and the nest-join function compiled where the
// expressions allow, so results and EvalSteps are the same at every degree.
// Governance is per row at every degree: each build row passes the
// hash.build gate and is charged to the build budget, each probe row passes
// the hash.probe gate.

// HashJoin is the hash implementation of the flat join family on equi-keys.
type HashJoin struct {
	Ctx        *Ctx
	Kind       algebra.JoinKind
	L, R       BatchIterator
	LVar, RVar string
	// LKeys/RKeys are the equi-key expressions over LVar and RVar; the i-th
	// left key matches the i-th right key.
	LKeys, RKeys []tmql.Expr
	// Residual is the remaining predicate (may be nil).
	Residual tmql.Expr
	// RElem is required for the outer join's NULL padding.
	RElem *types.Type
	// Degree is the number of hash partitions; below 2 there is no exchange.
	// The worker-pool size comes from the query's Scheduler (Degree doubles
	// as the pool hint when the context carries none).
	Degree int
	// BatchSize sizes the partitioned output batches (0 = default); serial
	// output batches follow the left input's.
	BatchSize int

	hashCore
	pad value.Value
}

// Open builds the right input's table (at Degree >= 2, runs the whole
// partitioned join) and opens the left.
func (j *HashJoin) Open() error {
	if j.Kind == algebra.JoinLeftOuter {
		if j.RElem == nil {
			return fmt.Errorf("exec: outer HashJoin needs RElem for NULL padding")
		}
		j.pad = nullTuple(j.RElem)
	}
	return j.open(j.Ctx, j.L, j.R, j.LVar, j.RVar, j.LKeys, j.RKeys, j.Degree, j.BatchSize, false, j.prober)
}

// prober returns the flat join's row probe over c. The semi and anti joins
// take the early-out probe that never builds a group — the efficiency edge §8
// exploits when grouping is provably unnecessary.
func (j *HashJoin) prober(c *Ctx) rowProbe {
	res := newPairPredicate(c, j.Residual, j.LVar, j.RVar)
	return func(l value.Value, bucket, out []value.Value) ([]value.Value, error) {
		if j.Kind == algebra.JoinSemi || j.Kind == algebra.JoinAnti {
			m, err := res.any(l, bucket)
			if err != nil {
				return nil, err
			}
			if m == (j.Kind == algebra.JoinSemi) {
				out = append(out, l)
			}
			return out, nil
		}
		matched := false
		for _, r := range bucket {
			ok, err := res.eval(l, r)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				out = append(out, l.Concat(r))
			}
		}
		if j.Kind == algebra.JoinLeftOuter && !matched {
			out = append(out, l.Concat(j.pad))
		}
		return out, nil
	}
}

// HashNestJoin is the hash implementation of the nest join. The right operand
// is the build table (§6's restriction: output must stay grouped by left
// elements, so the probing side must be the left); each left element probes
// its bucket, applies the join function to qualifying elements, and emits
// exactly one output tuple once the whole group is known. Partitioned, a left
// element's matches all share its key and therefore its partition, so the
// group is complete within one probe morsel.
type HashNestJoin struct {
	Ctx          *Ctx
	L, R         BatchIterator
	LVar, RVar   string
	LKeys, RKeys []tmql.Expr
	Residual     tmql.Expr
	Fn           tmql.Expr
	Label        string
	// Degree and BatchSize are as in HashJoin.
	Degree    int
	BatchSize int

	hashCore
}

// Open builds the right input's table (at Degree >= 2, runs the whole
// partitioned join) and opens the left.
func (j *HashNestJoin) Open() error {
	return j.open(j.Ctx, j.L, j.R, j.LVar, j.RVar, j.LKeys, j.RKeys, j.Degree, j.BatchSize, true, j.prober)
}

// prober returns the nest join's row probe over c: one output tuple per left
// element, extended with its group.
func (j *HashNestJoin) prober(c *Ctx) rowProbe {
	res := newPairPredicate(c, j.Residual, j.LVar, j.RVar)
	fn := newPairScalar(c, j.Fn, j.LVar, j.RVar)
	return func(l value.Value, bucket, out []value.Value) ([]value.Value, error) {
		group, err := nestGroup(&res, &fn, l, bucket)
		if err != nil {
			return nil, err
		}
		return append(out, l.Extend(j.Label, group)), nil
	}
}

// nestGroup applies the nest join's per-left-element grouping: the join
// function over the bucket candidates passing the residual, canonicalized
// into a set. The builder is sized by the bucket — the group is at most the
// bucket — so group construction never regrows. Shared by the hash and index
// nest joins.
func nestGroup(res *pairPredicate, fn *pairScalar, l value.Value, bucket []value.Value) (value.Value, error) {
	group := value.NewSetBuilder(len(bucket))
	for _, r := range bucket {
		match, err := res.eval(l, r)
		if err != nil {
			return value.Value{}, err
		}
		if !match {
			continue
		}
		g, err := fn.eval(l, r)
		if err != nil {
			return value.Value{}, err
		}
		group.Add(g)
	}
	return group.Build(), nil
}

// rowProbe probes one left row against its bucket and appends the row's join
// output to out. A probe is bound to one Ctx — its residual is not safe for
// concurrent use — so the partitioned form makes one per probe morsel.
type rowProbe func(l value.Value, bucket, out []value.Value) ([]value.Value, error)

// hashCore is the execution both hash operators share: open builds (and,
// partitioned, also probes), NextBatch streams the output, Close releases it.
type hashCore struct {
	c           *Ctx
	l           BatchIterator
	partitioned bool

	// Serial: the one table, the left key encoder and the row probe.
	table *hashTable
	lenc  *keyEncoder
	probe rowProbe
	out   Batch

	// Partitioned: the output materialized by open, one slot per probe
	// morsel in static (partition, fragment) order, streamed as zero-copy
	// batches of at most bsize rows.
	parts  [][]value.Value
	pi, oi int
	bsize  int
}

// nest says the probe emits exactly one row per probe row, which lets the
// partitioned form size its output slots exactly.
func (h *hashCore) open(c *Ctx, l, r BatchIterator, lvar, rvar string, lkeys, rkeys []tmql.Expr,
	degree, batchSize int, nest bool, prober func(*Ctx) rowProbe) error {
	if len(lkeys) == 0 || len(lkeys) != len(rkeys) {
		return fmt.Errorf("exec: hash join needs matching non-empty key lists")
	}
	*h = hashCore{c: c, l: l, partitioned: degree >= 2}
	if h.partitioned {
		h.bsize = NormalizeBatchSize(batchSize)
		var err error
		h.parts, err = runPartitioned(c, degree, l, r, lkeys, rkeys, lvar, rvar, nest, prober)
		return err
	}
	table, err := buildSerial(c, r, newKeyEncoder(c, rkeys, rvar))
	if err != nil {
		return err
	}
	h.table, h.lenc, h.probe = table, newKeyEncoder(c, lkeys, lvar), prober(c)
	return l.Open()
}

// buildSerial drains r into owned copies of its batches, each row's key
// encoded once, and builds one table from them with the build kernel.
func buildSerial(c *Ctx, r BatchIterator, enc *keyEncoder) (*hashTable, error) {
	if err := r.Open(); err != nil {
		return nil, err
	}
	defer r.Close()
	var owned []Batch
	for {
		bt, ok, err := r.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			return buildTable(c, owned)
		}
		if err := bt.encodeKeys(enc); err != nil {
			return nil, err
		}
		owned = append(owned, Batch{Rows: slices.Clone(bt.Rows), keys: slices.Clone(bt.keys), offs: slices.Clone(bt.offs)})
	}
}

// probeRows is the probe kernel: it probes each of b's rows against table
// under its encoded key, appending the output to out.
func probeRows(c *Ctx, table *hashTable, b *Batch, probe rowProbe, out []value.Value) ([]value.Value, error) {
	for i := 0; i < b.Len(); i++ {
		if err := probeCheck(c); err != nil {
			return nil, err
		}
		var err error
		if out, err = probe(b.row(i), table.bucket(b.Key(i)), out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeCheck is the per-row governance + fault-injection gate of the probe
// loops of the hash and index joins.
func probeCheck(c *Ctx) error {
	if err := c.check(); err != nil {
		return err
	}
	return faultinject.Hit(faultinject.PointHashProbe)
}

// NextBatch returns the next output batch. Serially it probes left batches
// until one produces output; the output follows the left batch (times the
// join fanout), so a high-fanout bucket can emit more rows than the
// configured size.
func (h *hashCore) NextBatch() (*Batch, bool, error) {
	if h.partitioned {
		return h.nextPart()
	}
	for {
		bt, ok, err := h.l.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		if err := bt.encodeKeys(h.lenc); err != nil {
			return nil, false, err
		}
		h.out.reset()
		if h.out.Rows, err = probeRows(h.c, h.table, bt, h.probe, h.out.Rows); err != nil {
			return nil, false, err
		}
		if h.out.Len() > 0 {
			return &h.out, true, nil
		}
	}
}

// nextPart streams the partitioned output as zero-copy slices of the probe
// slots.
func (h *hashCore) nextPart() (*Batch, bool, error) {
	for h.pi < len(h.parts) {
		part := h.parts[h.pi]
		if h.oi < len(part) {
			end := min(h.oi+h.bsize, len(part))
			h.out.reset()
			h.out.Rows = part[h.oi:end]
			h.oi = end
			return &h.out, true, nil
		}
		h.pi++
		h.oi = 0
	}
	return nil, false, nil
}

// Close releases the table or the output and closes the left input (the
// partitioned form drained and closed both inputs in Open).
func (h *hashCore) Close() error {
	h.table, h.parts = nil, nil
	if h.partitioned {
		return nil
	}
	return h.l.Close()
}
