package exec

import (
	"sort"

	"tmdb/internal/faultinject"
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

// sortedRow is one element of a sorted run: the merge joins order their
// inputs by the canonical value order of the key expressions, then by the
// full element, making the order total and deterministic.
type sortedRow struct {
	key value.Value // tuple of key values (label-free list encoded as a list value)
	v   value.Value
}

// sortBuildCheck is the per-row governance + fault-injection + budget gate
// of the merge joins' row-at-a-time sorted-run build loop. Sort rows carry
// no pre-encoded key, so the build budget charges the flat per-row overhead
// only.
func sortBuildCheck(c *Ctx) error {
	if err := c.check(); err != nil {
		return err
	}
	if err := faultinject.Hit(faultinject.PointSortBuild); err != nil {
		return err
	}
	return c.addBuild(0)
}

// sortBuildCheckBatch is sortBuildCheck under the batched contract: one
// governor poll and one fault point per batch, the flat per-row build
// overhead charged for all n rows in one budget call.
func sortBuildCheckBatch(c *Ctx, n int) error {
	if err := c.checkBatch(); err != nil {
		return err
	}
	if err := faultinject.Hit(faultinject.PointSortBuild); err != nil {
		return err
	}
	if c.Gov == nil {
		return nil
	}
	return c.Gov.AddBuildBytes(int64(n) * buildRowOverhead)
}

// sortRowsStable orders a sorted-run build by the canonical key order, ties
// broken by the full element. Row and batch builds share this comparator, so
// their runs are byte-identical.
func sortRowsStable(rows []sortedRow) {
	sort.SliceStable(rows, func(i, j int) bool {
		if c := value.Compare(rows[i].key, rows[j].key); c != 0 {
			return c < 0
		}
		return value.Less(rows[i].v, rows[j].v)
	})
}

// drainSortedBatches drains a batch input into one sorted run: the
// batch-native counterpart of the merge joins' drainSorted. Retaining a row
// out of a batch is a struct copy (value.Value is immutable; only the batch's
// backing slice is reused), so the per-row work left is key evaluation.
func drainSortedBatches(c *Ctx, in BatchIterator, varName string, keys []tmql.Expr) ([]sortedRow, error) {
	if err := in.Open(); err != nil {
		return nil, err
	}
	defer in.Close()
	var out []sortedRow
	for {
		bt, ok, err := in.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := sortBuildCheckBatch(c, len(bt.Rows)); err != nil {
			return nil, err
		}
		for _, v := range bt.Rows {
			k, err := evalKey(c, keys, varName, v)
			if err != nil {
				return nil, err
			}
			out = append(out, sortedRow{key: k, v: v})
		}
	}
	sortRowsStable(out)
	return out, nil
}

// evalKey evaluates the key expressions for element v bound to varName and
// packs them into one list value (lists compare lexicographically, which is
// exactly the composite-key order the merge joins need).
func evalKey(c *Ctx, keys []tmql.Expr, varName string, v value.Value) (value.Value, error) {
	env := env1(varName, v)
	ks := make([]value.Value, len(keys))
	for i, k := range keys {
		kv, err := c.evalIn(k, env)
		if err != nil {
			return value.Value{}, err
		}
		ks[i] = kv
	}
	return value.ListOf(ks...), nil
}
