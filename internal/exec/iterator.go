// Package exec implements the physical operators executing the algebra of
// internal/algebra: Volcano-style iterators and batch operators for scan,
// filter, map, distinct, set operations, the flat join family (nested-loop,
// hash, and index variants; inner, semi, anti, and left-outer), the
// restructuring operators ν / ν* / μ, and the paper's nest join
// (nested-loop, hash, sort-merge, and index implementations).
//
// As §6 ("Implementation") prescribes, the nest join implementations are
// simple modifications of the corresponding join methods with two
// restrictions honored: an output tuple is emitted only after the entire
// matching group is known, and the build/inner side must be the right
// operand so output stays grouped by left tuples. The hash method exists
// once: HashJoin and HashNestJoin differ only in their per-row probe, and
// share one build kernel and one probe kernel over one table.
package exec

import (
	"fmt"

	"tmdb/internal/eval"
	"tmdb/internal/faultinject"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Iterator is the Volcano operator interface. Usage: Open, repeated Next
// until ok=false, Close. Iterators are single-use.
type Iterator interface {
	Open() error
	Next() (v value.Value, ok bool, err error)
	Close() error
}

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

// evalIn evaluates e under the given variable bindings.
func (c *Ctx) evalIn(e tmql.Expr, env *eval.Env) (value.Value, error) {
	return c.Ev.EvalEnv(e, env)
}

// evalPred evaluates a predicate, requiring a boolean.
func (c *Ctx) evalPred(e tmql.Expr, env *eval.Env) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := c.Ev.EvalEnv(e, env)
	if err != nil {
		return false, err
	}
	if v.Kind() != value.KindBool {
		return false, fmt.Errorf("exec: predicate yielded %s, not BOOL", v)
	}
	return v.AsBool(), nil
}

// Collect drains an iterator into a canonical set value.
func Collect(it Iterator) (value.Value, error) {
	return CollectGoverned(nil, it)
}

// CollectGoverned is Collect under a governor: every row added to the result
// set is accounted against the row budget (pre-deduplication — the budget
// bounds produced work, not distinct output), and the cancel state is polled
// between rows so plans of cheap streaming operators still cancel promptly.
// A nil governor makes it plain Collect.
func CollectGoverned(gov *Governor, it Iterator) (value.Value, error) {
	if err := it.Open(); err != nil {
		return value.Value{}, err
	}
	defer it.Close()
	b := value.NewSetBuilder(0)
	var ticks uint32
	for {
		v, ok, err := it.Next()
		if err != nil {
			return value.Value{}, err
		}
		if !ok {
			break
		}
		if gov != nil {
			if err := gov.AddRows(1); err != nil {
				return value.Value{}, err
			}
			ticks++
			if ticks&(checkEvery-1) == 0 {
				if err := gov.Err(); err != nil {
					return value.Value{}, err
				}
			}
		}
		b.Add(v)
	}
	return b.Build(), nil
}

// Drain drains an iterator into a slice preserving arrival order (duplicates
// kept); used by operators that materialize inputs and by tests.
func Drain(it Iterator) ([]value.Value, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []value.Value
	for {
		v, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, v)
	}
}

// --- Leaf iterators ---

// TableScan reads a stored table.
type TableScan struct {
	Ctx   *Ctx
	Table string
	rows  []value.Value
	i     int
}

// Open resolves the table.
func (s *TableScan) Open() error {
	t, ok := s.Ctx.DB.Table(s.Table)
	if !ok {
		return fmt.Errorf("exec: unknown table %s", s.Table)
	}
	s.rows = t.Rows()
	s.i = 0
	return nil
}

// Next returns the next row.
func (s *TableScan) Next() (value.Value, bool, error) {
	if s.i >= len(s.rows) {
		return value.Value{}, false, nil
	}
	if err := s.Ctx.check(); err != nil {
		return value.Value{}, false, err
	}
	if err := faultinject.Hit(faultinject.PointScan); err != nil {
		return value.Value{}, false, err
	}
	v := s.rows[s.i]
	s.i++
	return v, true, nil
}

// Close releases the row slice.
func (s *TableScan) Close() error { s.rows = nil; return nil }

// SliceScan iterates a fixed slice; used by tests and by operators that
// materialize intermediate results.
type SliceScan struct {
	Rows []value.Value
	i    int
}

// Open resets the cursor.
func (s *SliceScan) Open() error { s.i = 0; return nil }

// Next returns the next element.
func (s *SliceScan) Next() (value.Value, bool, error) {
	if s.i >= len(s.Rows) {
		return value.Value{}, false, nil
	}
	v := s.Rows[s.i]
	s.i++
	return v, true, nil
}

// Close is a no-op.
func (s *SliceScan) Close() error { return nil }

// EvalScan evaluates a closed set-typed TM expression with the naive
// evaluator and iterates its elements — the physical form of algebra.EvalNode.
type EvalScan struct {
	Ctx   *Ctx
	Expr  tmql.Expr
	elems []value.Value
	i     int
}

// Open evaluates the expression.
func (s *EvalScan) Open() error {
	v, err := s.Ctx.evalIn(s.Expr, nil)
	if err != nil {
		return err
	}
	if v.Kind() != value.KindSet && v.Kind() != value.KindList {
		return fmt.Errorf("exec: EvalScan expression yielded %s, not a collection", v)
	}
	s.elems = v.Elems()
	s.i = 0
	return nil
}

// Next returns the next element.
func (s *EvalScan) Next() (value.Value, bool, error) {
	if s.i >= len(s.elems) {
		return value.Value{}, false, nil
	}
	v := s.elems[s.i]
	s.i++
	return v, true, nil
}

// Close releases the element slice.
func (s *EvalScan) Close() error { s.elems = nil; return nil }
