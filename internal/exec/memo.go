package exec

import (
	"strings"

	"tmdb/internal/faultinject"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Builds served per snapshot. The table a hash join builds over a bare scan
// of a stored table, keyed by field paths of the scan's rows, is a pure
// function of the table's sealed snapshot and those paths. Such a build is
// kept in the snapshot's memo (storage.Table.Snapshot): the first execution
// after a write fills it, and every later execution on that snapshot probes
// the kept table instead of building one. A nest join over a kept table
// whose groups depend on the bucket alone keeps them there too, one per slot.
// Nothing is ever maintained: a write starts a fresh memo, and the old one
// goes with its snapshot. No query waits on another's fill; when two cold
// fills race, the first store wins and the loser probes the winner's table.

// buildHash returns the hash join's table over its right input: the kept
// one, the one it builds and keeps, or — when the input is not a bare
// stored scan keyed by field paths, or the memo is full — one built for this
// query alone.
func (j *Join) buildHash() (*hashTable, error) {
	c := j.Ctx
	memo, key, err := j.openRight()
	if err != nil {
		return nil, err
	}
	if memo != nil {
		if v, ok := memo.Load(key); ok {
			j.R.Close()
			j.memo, j.buildKey = memo, key
			t := v.(*hashTable)
			return t, t.serve(c)
		}
	}
	run, err := drainOpened(j.R, newKeyEncoder(c, j.RKeys, j.RVar), nil)
	if err != nil {
		return nil, err
	}
	t, err := buildTable(c, run)
	if err != nil || memo == nil {
		return t, err
	}
	v, kept := memo.Store(key, t)
	if kept {
		j.memo, j.buildKey = memo, key
	}
	return v.(*hashTable), nil
}

// openRight opens the right input and returns the memo its build belongs
// in, with the build's key there: nil unless the input is a bare scan of a
// sealed stored table keyed by field paths. The scan then reads the very
// snapshot the memo belongs to.
func (j *Join) openRight() (*storage.Memo, string, error) {
	scan, ok := j.R.(*TableScan)
	var key string
	if ok {
		key, ok = buildKey(j.RKeys, j.RVar)
	}
	if !ok {
		return nil, "", j.R.Open()
	}
	memo, err := scan.openSnapshot()
	return memo, key, err
}

// serve charges a query that a kept table serves what building it charged,
// at once: one pass through the hash.build fault point and the build's
// recorded bytes in one budget call. A build-budget verdict and an armed
// hash.build rule then do not depend on which query happened to fill the
// memo.
func (t *hashTable) serve(c *Ctx) error {
	if err := c.checkBatch(); err != nil {
		return err
	}
	if err := faultinject.Hit(faultinject.PointHashBuild); err != nil {
		return err
	}
	if c.Gov == nil {
		return nil
	}
	return c.Gov.AddBuildBytes(t.bytes)
}

// buildKey returns the memo key of a build on keys, or false when a key is
// not a field path of rvar. The key is the path list alone, so it does not
// depend on the variable's name.
func buildKey(keys []tmql.Expr, rvar string) (string, bool) {
	var b strings.Builder
	b.WriteString("hash")
	for _, k := range keys {
		b.WriteByte(0)
		if !appendPath(&b, k, rvar) {
			return "", false
		}
	}
	return b.String(), true
}

// appendPath appends field path e of v, one ".label" per selection.
func appendPath(b *strings.Builder, e tmql.Expr, v string) bool {
	switch n := e.(type) {
	case *tmql.Var:
		return n.Name == v
	case *tmql.FieldSel:
		if !appendPath(b, n.X, v) {
			return false
		}
		b.WriteByte('.')
		b.WriteString(n.Label)
		return true
	}
	return false
}

// sharedGroups returns the nest join's group of every slot of its kept
// table — slot s's at s — kept in the same memo under the join function's
// variable-free form, or nil when the join computes its groups itself. They
// are shared when a group is a function of its bucket alone (no residual,
// and a function of the right row alone: one that reads the left row has
// no form) and the function compiles without the evaluator, so serving them
// and computing them both spend no evaluator steps. If computing them fails,
// nothing is kept and the join computes its groups per query, failing where
// it always did.
func (j *Join) sharedGroups(fn scalar2, compiled bool) []value.Value {
	if j.memo == nil || !compiled || j.Residual != nil {
		return nil
	}
	var b strings.Builder
	b.WriteString(j.buildKey)
	b.WriteByte(1)
	if !appendForm(&b, j.Fn, j.RVar) {
		return nil
	}
	key := b.String()
	if v, ok := j.memo.Load(key); ok {
		return v.([]value.Value)
	}
	groups, err := j.table.nestGroups(j.Ctx, fn)
	if err != nil {
		return nil
	}
	v, _ := j.memo.Store(key, groups)
	return v.([]value.Value)
}

// appendForm appends the form of e, an expression of the compiled subset,
// with v left unnamed, or reports false when e has none: when it reads a
// variable other than v or holds a literal that is not a scalar. Two
// expressions with one form compute the same function of v's row.
func appendForm(b *strings.Builder, e tmql.Expr, v string) bool {
	switch n := e.(type) {
	case *tmql.Lit:
		switch k := n.V.Kind(); k {
		case value.KindNull, value.KindBool, value.KindInt, value.KindFloat, value.KindString:
			b.WriteString(k.String())
			b.WriteByte(':')
			b.WriteString(n.V.String())
			return true
		}
		return false
	case *tmql.Var, *tmql.FieldSel:
		b.WriteByte('$')
		return appendPath(b, e, v)
	case *tmql.Agg:
		b.WriteString(n.Kind.String())
		b.WriteByte('(')
		ok := appendForm(b, n.X, v)
		b.WriteByte(')')
		return ok
	case *tmql.TupleCons:
		b.WriteByte('(')
		for _, f := range n.Fields {
			b.WriteString(f.Label)
			b.WriteByte('=')
			if !appendForm(b, f.E, v) {
				return false
			}
			b.WriteByte(',')
		}
		b.WriteByte(')')
		return true
	}
	return false
}

// nestGroups returns the nest-join group of every slot of t under fn, with
// no residual: slot s's group at s.
func (t *hashTable) nestGroups(c *Ctx, fn scalar2) ([]value.Value, error) {
	all := compilePred(c, nil, "", "")
	groups := make([]value.Value, len(t.keys.slots))
	for s := range groups {
		if err := c.check(); err != nil {
			return nil, err
		}
		bucket := t.slotRows(int32(s))
		g, err := nestGroup(all, fn, value.Value{}, bucket, len(bucket))
		if err != nil {
			return nil, err
		}
		groups[s] = g
	}
	return groups, nil
}
