package exec

import (
	"fmt"

	"tmdb/internal/algebra"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Index-backed join operators: the right operand is a stored table with a
// persistent hash index covering a prefix of the equi-key attributes
// (storage.Table.CreateIndex), so there is no build phase at all — each left
// row evaluates its key expressions and probes the index's bucket directly.
// This is the physical family behind planner.ImplIndex ("idxjoin"): it wins
// over the per-query hash build whenever the index exists, because the right
// input is never drained. Composite indexes serve multi-key equi-joins: the
// probe covers as many leading index attributes as the predicate pairs, and
// only the uncovered remainder is re-checked per candidate.
//
// Like the hash family, the probing side is the left operand — §6's
// restriction for the nest join (output grouped by left elements) is
// trivially preserved. Residual predicates (the non-indexed remainder of the
// join condition, including uncovered equi-key pairs) are re-checked per
// bucket candidate.

// indexProbeSide holds the index snapshot probed per left row and evaluates
// the left key prefix (allocation-lean: encodings append onto a reused
// scratch buffer); shared by IndexJoin, IndexNestJoin, and IndexScan. The
// planner resolves the *HashIndex at compile time and pre-seeds ix — index
// buckets are copy-on-write, so the snapshot stays probeable even if the
// registry entry is dropped mid-query, exactly like a scan's row snapshot.
// An operator constructed without the pre-resolved handle resolves at Open
// and surfaces the typed ErrStaleIndex when the registry no longer serves
// the index (dropped, or the table unsealed, since planning).
type indexProbeSide struct {
	ctx *Ctx
	// table and index locate the persistent index: the scanned extension and
	// the index's canonical registry name (storage.IndexName).
	table, index string
	lvar         string
	// lkeys are the probe-key expressions over lvar, ordered by the index's
	// attribute order; len(lkeys) is the probed prefix depth.
	lkeys   []tmql.Expr
	ix      *storage.HashIndex
	scratch []byte
}

func (s *indexProbeSide) open() error {
	if len(s.lkeys) == 0 {
		return fmt.Errorf("exec: index probe on %s.%s needs at least one key", s.table, s.index)
	}
	if s.ix == nil {
		t, ok := s.ctx.DB.Table(s.table)
		if !ok {
			return fmt.Errorf("exec: unknown table %s", s.table)
		}
		ix, ok := t.Index(s.index)
		if !ok {
			return fmt.Errorf("no live index on %s(%s) (table unsealed or index dropped since planning): %w",
				s.table, s.index, ErrStaleIndex)
		}
		s.ix = ix
	}
	if len(s.lkeys) > len(s.ix.Attrs()) {
		return fmt.Errorf("exec: probe depth %d exceeds index %s(%s)", len(s.lkeys), s.table, s.index)
	}
	return nil
}

// bucket returns the index bucket matching the left row's key prefix.
func (s *indexProbeSide) bucket(l value.Value) ([]value.Value, error) {
	env := env1(s.lvar, l)
	buf := s.scratch[:0]
	for _, k := range s.lkeys {
		kv, err := s.ctx.evalIn(k, env)
		if err != nil {
			return nil, err
		}
		buf = value.AppendKey(buf, kv)
	}
	s.scratch = buf[:0]
	return s.ix.LookupEncoded(string(buf), len(s.lkeys)), nil
}

// IndexJoin is the index-backed implementation of the flat join family
// (inner, semi, anti, left-outer) on equi-keys with a persistent index.
type IndexJoin struct {
	Ctx  *Ctx
	Kind algebra.JoinKind
	L    Iterator
	// Table and Index name the right side: the indexed stored table and the
	// index's canonical registry name (storage.IndexName of its attributes).
	Table, Index string
	// Ix is the index snapshot resolved by the planner at compile time;
	// nil falls back to registry resolution at Open (typed-stale on miss).
	Ix         *storage.HashIndex
	LVar, RVar string
	// LKeys are the probe-key expressions over LVar (the left halves of the
	// equi-key pairs the index prefix covers, in index attribute order).
	LKeys []tmql.Expr
	// Residual is the remaining predicate (may be nil).
	Residual tmql.Expr
	// RElem is required for the outer join's NULL padding.
	RElem *types.Type

	probe   indexProbeSide
	res     pairPredicate
	cur     value.Value
	bucket  []value.Value
	bi      int
	matched bool
	state   nlState
	pad     value.Value
}

// Open resolves the index and opens the left input. The right table is never
// scanned.
func (j *IndexJoin) Open() error {
	j.probe = indexProbeSide{ctx: j.Ctx, table: j.Table, index: j.Index, lvar: j.LVar, lkeys: j.LKeys, ix: j.Ix}
	if err := j.probe.open(); err != nil {
		return err
	}
	j.res = newPairPredicate(j.Ctx, j.Residual, j.LVar, j.RVar)
	if j.Kind == algebra.JoinLeftOuter {
		if j.RElem == nil {
			return fmt.Errorf("exec: outer IndexJoin needs RElem for NULL padding")
		}
		j.pad = nullTuple(j.RElem)
	}
	j.state = nlNeedLeft
	return j.L.Open()
}

// Next produces the next output tuple.
func (j *IndexJoin) Next() (value.Value, bool, error) {
	for {
		switch j.state {
		case nlDone:
			return value.Value{}, false, nil
		case nlNeedLeft:
			l, ok, err := j.L.Next()
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				j.state = nlDone
				return value.Value{}, false, nil
			}
			if err := probeCheck(j.Ctx); err != nil {
				return value.Value{}, false, err
			}
			j.cur = l
			j.bucket, err = j.probe.bucket(l)
			if err != nil {
				return value.Value{}, false, err
			}
			j.bi = 0
			j.matched = false
			switch j.Kind {
			case algebra.JoinSemi, algebra.JoinAnti:
				m, err := j.res.any(j.cur, j.bucket)
				if err != nil {
					return value.Value{}, false, err
				}
				if m == (j.Kind == algebra.JoinSemi) {
					return j.cur, true, nil
				}
				continue
			default:
				j.state = nlScanRight
			}
		case nlScanRight:
			for j.bi < len(j.bucket) {
				r := j.bucket[j.bi]
				j.bi++
				ok, err := j.res.eval(j.cur, r)
				if err != nil {
					return value.Value{}, false, err
				}
				if !ok {
					continue
				}
				j.matched = true
				return j.cur.Concat(r), true, nil
			}
			j.state = nlNeedLeft
			if j.Kind == algebra.JoinLeftOuter && !j.matched {
				return j.cur.Concat(j.pad), true, nil
			}
		}
	}
}

// Close releases the bucket and closes the left input.
func (j *IndexJoin) Close() error {
	j.probe.ix = nil
	j.bucket = nil
	return j.L.Close()
}

// IndexNestJoin is the index-backed implementation of the nest join: each
// left element probes the persistent index, applies the join function to
// qualifying candidates, and emits one output tuple carrying the whole group
// (§6's grouping restriction, trivially satisfied — no build table needed).
type IndexNestJoin struct {
	Ctx          *Ctx
	L            Iterator
	Table, Index string
	// Ix is the index snapshot resolved by the planner at compile time;
	// nil falls back to registry resolution at Open (typed-stale on miss).
	Ix         *storage.HashIndex
	LVar, RVar string
	LKeys      []tmql.Expr
	Residual   tmql.Expr
	Fn         tmql.Expr
	Label      string

	probe indexProbeSide
	res   pairPredicate
	fn    pairScalar
}

// Open resolves the index and opens the left input.
func (j *IndexNestJoin) Open() error {
	j.probe = indexProbeSide{ctx: j.Ctx, table: j.Table, index: j.Index, lvar: j.LVar, lkeys: j.LKeys, ix: j.Ix}
	if err := j.probe.open(); err != nil {
		return err
	}
	j.res = newPairPredicate(j.Ctx, j.Residual, j.LVar, j.RVar)
	j.fn = newPairScalar(j.Ctx, j.Fn, j.LVar, j.RVar)
	return j.L.Open()
}

// Next emits the next left element extended with its group.
func (j *IndexNestJoin) Next() (value.Value, bool, error) {
	l, ok, err := j.L.Next()
	if err != nil || !ok {
		return value.Value{}, false, err
	}
	if err := probeCheck(j.Ctx); err != nil {
		return value.Value{}, false, err
	}
	bucket, err := j.probe.bucket(l)
	if err != nil {
		return value.Value{}, false, err
	}
	group, err := nestGroup(&j.res, &j.fn, l, bucket)
	if err != nil {
		return value.Value{}, false, err
	}
	return l.Extend(j.Label, group), true, nil
}

// Close releases the index reference and closes the left input.
func (j *IndexNestJoin) Close() error {
	j.probe.ix = nil
	return j.L.Close()
}
