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
// Only the nest-join variant of the merge join is provided: the flat joins
// are served by Join, while the merge *nest* join exists to demonstrate §6's
// point that any common join method adapts. A left element's right run is its
// bucket, grouped by the same kernel as Join's (nestGroup).
type MergeNestJoin struct {
	Ctx          *Ctx
	L, R         BatchIterator
	LVar, RVar   string
	LKeys, RKeys []tmql.Expr
	Residual     tmql.Expr
	Fn           tmql.Expr
	Label        string

	left  []sortedRow
	rkeys []value.Value
	rrows []value.Value
	res   pairPredicate
	fn    pairScalar
	out   []value.Value
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
	right, err := sortedRun(j.Ctx, j.R, j.RVar, j.RKeys)
	if err != nil {
		return err
	}
	j.rkeys, j.rrows = make([]value.Value, len(right)), make([]value.Value, len(right))
	for i, r := range right {
		j.rkeys[i], j.rrows[i] = r.key, r.v
	}
	j.res = newPairPredicate(j.Ctx, j.Residual, j.LVar, j.RVar)
	j.fn = newPairScalar(j.Ctx, j.Fn, j.LVar, j.RVar)
	return nil
}

// NextBatch emits the next DefaultBatchSize left elements with their groups.
func (j *MergeNestJoin) NextBatch() ([]value.Value, bool, error) {
	if len(j.left) == 0 {
		return nil, false, nil
	}
	j.out = slices.Grow(j.out[:0], min(len(j.left), DefaultBatchSize))
	for len(j.left) > 0 && len(j.out) < DefaultBatchSize {
		if err := j.Ctx.check(); err != nil {
			return nil, false, err
		}
		l := j.left[0]
		j.left = j.left[1:]
		// Skip the right rows keyed below l. Because the left is also
		// sorted, the right cursor never moves backwards.
		lo := 0
		for lo < len(j.rkeys) && value.Compare(j.rkeys[lo], l.key) < 0 {
			lo++
		}
		j.rkeys, j.rrows = j.rkeys[lo:], j.rrows[lo:]
		hi := 0
		for hi < len(j.rkeys) && value.Compare(j.rkeys[hi], l.key) == 0 {
			hi++
		}
		group, err := nestGroup(&j.res, &j.fn, l.v, j.rrows[:hi], hi)
		if err != nil {
			return nil, false, err
		}
		j.out = append(j.out, l.v.Extend(j.Label, group))
	}
	return j.out, true, nil
}

// Close releases the sorted runs.
func (j *MergeNestJoin) Close() error {
	j.left, j.rkeys, j.rrows = nil, nil, nil
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
			if err := c.Gov.AddBuildBytes(int64(len(bt)) * buildRowOverhead); err != nil {
				return nil, err
			}
		}
		for _, v := range bt {
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
