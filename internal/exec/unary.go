package exec

import (
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Filter implements σ: it yields input elements satisfying Pred(Var).
type Filter struct {
	Ctx  *Ctx
	In   Iterator
	Var  string
	Pred tmql.Expr
}

// Open opens the input.
func (f *Filter) Open() error { return f.In.Open() }

// Next returns the next qualifying element.
func (f *Filter) Next() (value.Value, bool, error) {
	for {
		v, ok, err := f.In.Next()
		if err != nil || !ok {
			return value.Value{}, false, err
		}
		keep, err := f.Ctx.evalPred(f.Pred, env1(f.Var, v))
		if err != nil {
			return value.Value{}, false, err
		}
		if keep {
			return v, true, nil
		}
	}
}

// Close closes the input.
func (f *Filter) Close() error { return f.In.Close() }

// MapIter applies Out(Var) to every input element.
type MapIter struct {
	Ctx *Ctx
	In  Iterator
	Var string
	Out tmql.Expr
}

// Open opens the input.
func (m *MapIter) Open() error { return m.In.Open() }

// Next returns Out applied to the next input element.
func (m *MapIter) Next() (value.Value, bool, error) {
	v, ok, err := m.In.Next()
	if err != nil || !ok {
		return value.Value{}, false, err
	}
	out, err := m.Ctx.evalIn(m.Out, env1(m.Var, v))
	if err != nil {
		return value.Value{}, false, err
	}
	return out, true, nil
}

// Close closes the input.
func (m *MapIter) Close() error { return m.In.Close() }

// Distinct removes duplicates (TM collections are sets; operators such as Map
// may introduce duplicates that must not reach set-valued results).
type Distinct struct {
	// Ctx may be nil (tests); the planner always wires it so the dedup loop
	// observes cancellation.
	Ctx  *Ctx
	In   Iterator
	seen map[string]bool
}

// Open opens the input and resets the seen table.
func (d *Distinct) Open() error {
	d.seen = make(map[string]bool)
	return d.In.Open()
}

// Next returns the next not-yet-seen element.
func (d *Distinct) Next() (value.Value, bool, error) {
	for {
		v, ok, err := d.In.Next()
		if err != nil || !ok {
			return value.Value{}, false, err
		}
		if d.Ctx != nil {
			if err := d.Ctx.check(); err != nil {
				return value.Value{}, false, err
			}
		}
		k := value.Key(v)
		if !d.seen[k] {
			d.seen[k] = true
			return v, true, nil
		}
	}
}

// Close closes the input.
func (d *Distinct) Close() error { d.seen = nil; return d.In.Close() }
