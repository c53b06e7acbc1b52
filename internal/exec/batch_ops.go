package exec

import (
	"bytes"
	"fmt"
	"slices"

	"tmdb/internal/faultinject"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// The leaf and unary operators. Each polls the governor and hits its fault
// point once per batch (see exec.go for the protocol), and runs its per-row
// work in a tight loop over the batch slice through compiled row programs
// where the expressions allow.

// TableScan reads a stored table one zero-copy batch at a time, from one of
// two narrowed sources or the whole table. With a bounded Range it reads only
// the rows whose leading field lies in it, still in canonical order; each
// batch is one chunk of the table's row snapshot. With an index Ix it reads
// only the index buckets under its Points, each a list of Depth closed key
// expressions evaluated at Open under the query's arguments, cutting a bucket
// longer than DefaultBatchSize into batches of that size. Points may repeat a
// key (x.b = ?int OR x.b = ?int with equal arguments): Open takes the bucket
// of each distinct encoded key once, and distinct keys address disjoint
// buckets (the key encoding is injective per depth), so the buckets
// concatenate without deduplication, though not in canonical order. Ix is the
// live index the planner fetched when it compiled the scan: buckets are
// copy-on-write, so it stays readable even if the registry entry is dropped
// mid-query, like a row snapshot. The planner sets either source only
// beneath a selection whose filter above the scan still checks every
// conjunct the source does not.
type TableScan struct {
	Ctx    *Ctx
	Table  string
	Range  storage.KeyRange
	Ix     *storage.HashIndex
	Depth  int
	Points [][]tmql.Expr
	src    [][]value.Value
	// pinned reports that pin took the snapshot src holds, memo's, for the
	// next Open to read.
	pinned bool
	memo   *storage.Memo
}

// Open takes the index buckets under the points, or else the table's row
// snapshot, unless pin took it already.
func (s *TableScan) Open() error {
	if s.Ix != nil {
		return s.lookup()
	}
	_, err := s.pin()
	s.pinned = false
	return err
}

// lookup evaluates every point's keys once and takes the bucket of each
// distinct encoded key as the rows to read. The table's other rows are never
// touched.
func (s *TableScan) lookup() error {
	if err := checkIndex(s.Ix, s.Depth); err != nil {
		return err
	}
	s.src = s.src[:0]
	// keys holds every distinct point's encoding, ends where each one ends;
	// point keys are short, so a single point's stay on the stack.
	keys := make([]byte, 0, 32)
	var endsBuf [4]int
	ends := endsBuf[:0]
	for _, pt := range s.Points {
		if len(pt) != s.Depth {
			return fmt.Errorf("exec: index scan point has %d keys, want depth %d", len(pt), s.Depth)
		}
		start := len(keys)
		for _, k := range pt {
			kv, err := s.Ctx.Ev.Eval(k)
			if err != nil {
				return err
			}
			keys = value.AppendKey(keys, kv)
		}
		key, dup, prev := keys[start:], false, 0
		for _, end := range ends {
			dup, prev = dup || bytes.Equal(keys[prev:end], key), end
		}
		if dup {
			keys = keys[:start]
			continue
		}
		ends = append(ends, len(keys))
		if b := s.Ix.LookupEncoded(string(key), s.Depth); len(b) > 0 {
			s.src = append(s.src, b[:len(b):len(b)])
		}
	}
	return nil
}

// pin takes the table's row snapshot for the next Open to read, cut to
// Range, unless it is taken already, and returns the memo that belongs to
// it. A kept build and a plain scan thus read the same rows.
func (s *TableScan) pin() (*storage.Memo, error) {
	if s.pinned {
		return s.memo, nil
	}
	t, ok := s.Ctx.DB.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %s", s.Table)
	}
	s.src, s.memo = t.Snapshot()
	s.src = s.Range.Cut(s.src)
	s.pinned = true
	return s.memo, nil
}

// NextBatch returns the next batch of rows. Only an index bucket is ever cut:
// a chunk holds at most DefaultBatchSize rows, so the chunk directory, which
// the snapshot shares, is never written.
func (s *TableScan) NextBatch() ([]value.Value, bool, error) {
	if len(s.src) == 0 {
		return nil, false, nil
	}
	b := s.src[0]
	if len(b) > DefaultBatchSize {
		b, s.src[0] = b[:DefaultBatchSize:DefaultBatchSize], b[DefaultBatchSize:]
	} else {
		s.src = s.src[1:]
	}
	if err := s.Ctx.checkBatch(); err != nil {
		return nil, false, err
	}
	if err := faultinject.Hit(faultinject.PointScan); err != nil {
		return nil, false, err
	}
	return b, true, nil
}

// Close releases the rows.
func (s *TableScan) Close() error { s.src, s.memo, s.pinned = nil, nil, false; return nil }

// stableBatches marks the batches as subslices of an immutable snapshot's
// chunks or an index's copy-on-write buckets.
func (*TableScan) stableBatches() {}

// EvalScan evaluates a closed set-typed TM expression with the naive
// evaluator and emits its elements in zero-copy batches — the physical form
// of algebra.EvalNode.
type EvalScan struct {
	Ctx  *Ctx
	Expr tmql.Expr
	src  chunks
}

// Open evaluates the expression.
func (s *EvalScan) Open() error {
	v, err := s.Ctx.Ev.Eval(s.Expr)
	if err != nil {
		return err
	}
	if v.Kind() != value.KindSet && v.Kind() != value.KindList {
		return fmt.Errorf("exec: EvalScan expression yielded %s, not a collection", v)
	}
	s.src = chunks{rows: v.Elems()}
	return nil
}

// NextBatch returns the next batch of elements.
func (s *EvalScan) NextBatch() ([]value.Value, bool, error) {
	b, ok := s.src.next()
	return b, ok, nil
}

// Close releases the elements.
func (s *EvalScan) Close() error { s.src = chunks{}; return nil }

// stableBatches marks the batches as subslices of an immutable collection.
func (*EvalScan) stableBatches() {}

// Filter is σ: it emits the input batch's qualifying rows. A nil Pred keeps
// every row: the filter passes its input's batches through without copying
// them.
type Filter struct {
	Ctx  *Ctx
	In   BatchIterator
	Var  string
	Pred tmql.Expr
	pred pred2
	out  outBuf
}

// Open compiles the predicate and opens the input.
func (f *Filter) Open() error {
	f.pred = compilePred(f.Ctx, f.Pred, f.Var, "")
	return f.In.Open()
}

// NextBatch filters input batches until one yields at least one row.
func (f *Filter) NextBatch() ([]value.Value, bool, error) {
	for {
		bt, ok, err := f.In.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		if err := f.Ctx.checkBatch(); err != nil {
			return nil, false, err
		}
		if f.Pred == nil {
			return bt, true, nil
		}
		if f.out.rows, err = filterRows(f.pred, bt, f.out.reset()); err != nil {
			return nil, false, err
		}
		if len(f.out.rows) > 0 {
			return f.out.rows, true, nil
		}
	}
}

// Close returns the output buffer and closes the input.
func (f *Filter) Close() error { f.out.release(); return f.In.Close() }

// Map applies Out(Var) to every row of every input batch. With
// Distinct set it also drops every output row equal to an earlier one: TM
// collections are sets, and a map may collapse distinct inputs onto one value
// that must not reach set-valued results twice. It dedups on the canonical
// key encoding (value.AppendKey) in a key table whose arena keeps each
// distinct row's key once: no per-row or per-key allocation. A map whose
// output is its bare variable, Map[x](x), without Distinct passes its input
// batches through unchanged.
type Map struct {
	Ctx      *Ctx
	In       BatchIterator
	Var      string
	Out      tmql.Expr
	Distinct bool

	identity bool
	proj     scalar2
	seen     *keyTable // allocated only under Distinct
	out      outBuf
}

// Open compiles the projection and opens the input.
func (m *Map) Open() error {
	v, ok := m.Out.(*tmql.Var)
	m.identity = ok && v.Name == m.Var
	m.proj = compile(m.Ctx, m.Out, m.Var, "")
	if m.Distinct {
		m.seen = new(keyTable)
	}
	return m.In.Open()
}

// NextBatch maps input batches until one yields at least one row.
func (m *Map) NextBatch() ([]value.Value, bool, error) {
	for {
		bt, ok, err := m.In.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		if err := m.Ctx.checkBatch(); err != nil {
			return nil, false, err
		}
		if m.identity && !m.Distinct {
			return bt, true, nil
		}
		out := slices.Grow(m.out.reset(), len(bt))
		scratch := make([]byte, 0, 64) // short keys stay on the stack
		for _, v := range bt {
			if v, err = m.proj(v, value.Value{}); err != nil {
				return nil, false, err
			}
			if m.Distinct {
				scratch = value.AppendKey(scratch[:0], v)
				if _, added := m.seen.intern(scratch); !added {
					continue
				}
			}
			out = append(out, v)
		}
		if m.out.rows = out; len(out) > 0 {
			return out, true, nil
		}
	}
}

// Close releases the seen table and the output buffer and closes the input.
func (m *Map) Close() error { m.seen = nil; m.out.release(); return m.In.Close() }
