package exec

import (
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

// TableScan reads a stored table one zero-copy batch at a time: each
// emitted batch is one chunk of the table's row snapshot. With a bounded
// Range it reads only the rows whose leading field lies in it, still in
// canonical order; the planner sets one only beneath a selection whose whole
// predicate stays as a filter above the scan.
type TableScan struct {
	Ctx   *Ctx
	Table string
	Range storage.KeyRange
	src   [][]value.Value
	// pinned reports that pin took the snapshot src holds, memo's, for the
	// next Open to read.
	pinned bool
	memo   *storage.Memo
}

// Open resolves the table and takes its row snapshot, unless pin took it
// already.
func (s *TableScan) Open() error {
	_, err := s.pin()
	s.pinned = false
	return err
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

// NextBatch returns the next batch of rows.
func (s *TableScan) NextBatch() ([]value.Value, bool, error) {
	if len(s.src) == 0 {
		return nil, false, nil
	}
	b := s.src[0]
	s.src = s.src[1:]
	if err := s.Ctx.checkBatch(); err != nil {
		return nil, false, err
	}
	if err := faultinject.Hit(faultinject.PointScan); err != nil {
		return nil, false, err
	}
	return b, true, nil
}

// Close releases the row snapshot.
func (s *TableScan) Close() error { s.src, s.memo, s.pinned = nil, nil, false; return nil }

// stableBatches marks the batches as chunks of an immutable snapshot.
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

// Filter is σ: it emits the input batch's qualifying rows.
type Filter struct {
	Ctx  *Ctx
	In   BatchIterator
	Var  string
	Pred tmql.Expr
	pred pred2
	out  []value.Value
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
		if f.out, err = filterRows(f.pred, bt, f.out); err != nil {
			return nil, false, err
		}
		if len(f.out) > 0 {
			return f.out, true, nil
		}
	}
}

// Close closes the input.
func (f *Filter) Close() error { return f.In.Close() }

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
	out      []value.Value
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
		m.out = slices.Grow(m.out[:0], len(bt))
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
			m.out = append(m.out, v)
		}
		if len(m.out) > 0 {
			return m.out, true, nil
		}
	}
}

// Close releases the seen table and closes the input.
func (m *Map) Close() error { m.seen = nil; return m.In.Close() }
