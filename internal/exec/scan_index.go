package exec

import (
	"fmt"

	"tmdb/internal/faultinject"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// IndexScan is the index-backed access path for single-table selections: a
// selection whose equality conjuncts cover a prefix of a persistent index
// (σ[x.a = c AND …](X)) reads exactly the matching bucket(s) instead of
// scanning the table. The base scan is never materialized — Open resolves
// the index and the point keys, NextBatch emits the buckets as zero-copy
// batches, filtered through the residual predicate when there is one. This
// is the physical family behind the planner's AccessIndex ("idxscan") access
// path.
//
// Points holds one or more key points. Each point is a list of closed key
// expressions (no free variables — the planner only matches conjuncts whose
// non-attribute side is constant at plan time), one per covered index
// attribute in index order. Distinct points address disjoint buckets (the
// key encoding is injective per depth), so multi-point scans concatenate
// buckets without deduplication.
type IndexScan struct {
	Ctx *Ctx
	// Table and Index locate the persistent index: the scanned extension and
	// the index's canonical registry name (storage.IndexName).
	Table, Index string
	// Ix is the index snapshot resolved by the planner at compile time;
	// nil falls back to registry resolution at Open (typed-stale on miss).
	Ix *storage.HashIndex
	// Depth is the number of leading index attributes each point covers.
	Depth int
	// Points are the key points, each a list of Depth closed expressions.
	Points [][]tmql.Expr
	// Var and Residual re-check the selection's uncovered conjuncts per
	// bucket row (Residual may be nil when the index covers everything).
	Var      string
	Residual tmql.Expr

	ix      *storage.HashIndex
	buckets [][]value.Value
	src     chunks
	pred    pred2
	out     []value.Value
}

// Open resolves the index, evaluates every point's keys, and fetches the
// matching buckets. The base table's rows are never touched beyond them.
func (s *IndexScan) Open() error {
	if s.Depth < 1 || len(s.Points) == 0 {
		return fmt.Errorf("exec: IndexScan on %s(%s) needs a positive depth and at least one point", s.Table, s.Index)
	}
	ix, err := openIndex(s.Ctx, s.Ix, s.Table, s.Index, s.Depth)
	if err != nil {
		return err
	}
	s.ix, s.buckets, s.src = ix, s.buckets[:0], chunks{}
	buf := make([]byte, 0, 32) // point keys are short: the buffer stays on the stack
	for _, pt := range s.Points {
		if len(pt) != s.Depth {
			return fmt.Errorf("exec: IndexScan point has %d keys, want depth %d", len(pt), s.Depth)
		}
		buf = buf[:0]
		for _, k := range pt {
			kv, err := s.Ctx.Ev.Eval(k)
			if err != nil {
				return err
			}
			buf = value.AppendKey(buf, kv)
		}
		if b := ix.LookupEncoded(string(buf), s.Depth); len(b) > 0 {
			s.buckets = append(s.buckets, b)
		}
	}
	s.pred = compilePred(s.Ctx, s.Residual, s.Var, "")
	return nil
}

// NextBatch returns the next batch of bucket rows passing the residual
// predicate.
func (s *IndexScan) NextBatch() ([]value.Value, bool, error) {
	for {
		b, ok := s.src.next()
		if !ok {
			if len(s.buckets) == 0 {
				return nil, false, nil
			}
			s.src.rows, s.buckets = s.buckets[0], s.buckets[1:]
			continue
		}
		if err := s.Ctx.checkBatch(); err != nil {
			return nil, false, err
		}
		if err := faultinject.Hit(faultinject.PointScan); err != nil {
			return nil, false, err
		}
		if s.Residual == nil {
			return b, true, nil
		}
		var err error
		if s.out, err = filterRows(s.pred, b, s.out); err != nil {
			return nil, false, err
		}
		if len(s.out) > 0 {
			return s.out, true, nil
		}
	}
}

// Close releases the buckets and the index reference.
func (s *IndexScan) Close() error {
	s.ix, s.buckets, s.src = nil, nil, chunks{}
	return nil
}
