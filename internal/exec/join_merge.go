package exec

import (
	"fmt"
	"slices"

	"tmdb/internal/faultinject"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// MergeNestJoin is the sort-merge implementation of the nest join: both
// inputs are sorted by their equi-keys; a single merge pass pairs each run of
// equal-keyed left elements with the matching right run. As §6 requires, the
// output order follows the left operand, each left element appearing exactly
// once with its full group.
//
// Only the nest-join variant of the merge join is provided: the inner merge
// join is subsumed by HashJoin/NLJoin in the planner, while the merge *nest*
// join exists to demonstrate §6's point that any common join method adapts.
type MergeNestJoin struct {
	Ctx          *Ctx
	L, R         BatchIterator
	LVar, RVar   string
	LKeys, RKeys []tmql.Expr
	Residual     tmql.Expr
	Fn           tmql.Expr
	Label        string

	left  []sortedRow
	right []sortedRow
	li    int
	rlo   int
}

// Open drains and sorts both inputs by key.
func (j *MergeNestJoin) Open() error {
	if len(j.LKeys) == 0 || len(j.LKeys) != len(j.RKeys) {
		return fmt.Errorf("exec: MergeNestJoin needs matching non-empty key lists")
	}
	var err error
	if j.left, err = sortedRun(j.Ctx, j.L, j.LVar, j.LKeys); err != nil {
		return err
	}
	if j.right, err = sortedRun(j.Ctx, j.R, j.RVar, j.RKeys); err != nil {
		return err
	}
	j.li, j.rlo = 0, 0
	return nil
}

// Next emits the next left element with its group.
func (j *MergeNestJoin) Next() (value.Value, bool, error) {
	if j.li >= len(j.left) {
		return value.Value{}, false, nil
	}
	if err := j.Ctx.check(); err != nil {
		return value.Value{}, false, err
	}
	l := j.left[j.li]
	j.li++
	// Advance the right cursor to the first key ≥ l.key. Because the left is
	// also sorted, rlo never moves backwards across Next calls.
	for j.rlo < len(j.right) && value.Compare(j.right[j.rlo].key, l.key) < 0 {
		j.rlo++
	}
	group := value.NewSetBuilder(0)
	for ri := j.rlo; ri < len(j.right) && value.Compare(j.right[ri].key, l.key) == 0; ri++ {
		r := j.right[ri]
		env := env2(j.LVar, l.v, j.RVar, r.v)
		match, err := j.Ctx.evalPred(j.Residual, env)
		if err != nil {
			return value.Value{}, false, err
		}
		if !match {
			continue
		}
		g, err := j.Ctx.evalIn(j.Fn, env)
		if err != nil {
			return value.Value{}, false, err
		}
		group.Add(g)
	}
	return l.v.Extend(j.Label, group.Build()), true, nil
}

// Close releases the sorted runs.
func (j *MergeNestJoin) Close() error {
	j.left, j.right = nil, nil
	return nil
}

// sortedRow is one element of a sorted run: the merge nest join orders its
// inputs by the canonical value order of the key expressions, then by the
// full element, making the order total and deterministic.
type sortedRow struct {
	key value.Value // tuple of key values (label-free list encoded as a list value)
	v   value.Value
}

// sortedRun drains a batch input into one sorted run, ordered by the
// canonical key order with ties broken by the full element. Retaining a row
// out of a batch is a struct copy (value.Value is immutable; only the batch's
// backing slice is reused), so the per-row work left is key evaluation. Each
// batch passes one governor poll and the sort.build fault point, and charges
// the flat per-row build overhead for all its rows in one budget call (sort
// rows carry no encoded key).
func sortedRun(c *Ctx, in BatchIterator, varName string, keys []tmql.Expr) ([]sortedRow, error) {
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
		if err := c.checkBatch(); err != nil {
			return nil, err
		}
		if err := faultinject.Hit(faultinject.PointSortBuild); err != nil {
			return nil, err
		}
		if c.Gov != nil {
			if err := c.Gov.AddBuildBytes(int64(bt.Len()) * buildRowOverhead); err != nil {
				return nil, err
			}
		}
		for _, v := range bt.Rows {
			k, err := evalKey(c, keys, varName, v)
			if err != nil {
				return nil, err
			}
			out = append(out, sortedRow{key: k, v: v})
		}
	}
	slices.SortStableFunc(out, func(a, b sortedRow) int {
		if c := value.Compare(a.key, b.key); c != 0 {
			return c
		}
		return value.Compare(a.v, b.v)
	})
	return out, nil
}

// evalKey evaluates the key expressions for element v bound to varName and
// packs them into one list value (lists compare lexicographically, which is
// exactly the composite-key order the merge nest join needs).
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
