package exec

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"

	"tmdb/internal/algebra"
	"tmdb/internal/faultinject"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Builds served per snapshot. The table a hash join builds over a closed
// subtree — stored-table scans, none read through an index, under filters,
// maps and joins whose expressions all compile without the evaluator and
// read no variable from outside the subtree — keyed by compiled expressions of its rows, is a pure
// function of the snapshots the scans read. Such a build is kept in
// the memo of the newest of those snapshots (storage.Table.Snapshot), under
// a key naming the subtree's variable-free form, the build keys and every
// snapshot read (by storage.Memo.ID): the first execution after a write
// fills it, and every later execution on those snapshots probes the kept
// table instead of building one. A bare scan is the one-leaf case. A nest
// join over a kept table whose groups depend on the bucket alone keeps them
// there too, one per slot. Nothing is ever maintained: a write starts a
// fresh memo, and the old one goes with its snapshot. No query waits on
// another's fill; when two cold fills race, the first store wins and the
// loser probes the winner's table.

// buildCharge is what hash builds charged the query: build-budget bytes, and
// build sites, each of which passed the hash.build fault point.
type buildCharge struct {
	bytes int64
	sites int
}

// buildHash returns the hash join's table over its right input: the kept
// one, the one it builds and keeps, or — when the input is not a closed
// subtree over stored tables, or the memo is full — one built for
// this query alone. A kept table records what its fill charged, nested
// builds included, so that serving it charges the same.
func (j *Join) buildHash() (*hashTable, error) {
	c := j.Ctx
	memo, key, leaves, err := j.pinRight()
	if err != nil {
		return nil, err
	}
	if memo != nil {
		if v, ok := memo.Load(key); ok {
			for _, s := range leaves {
				s.Close()
			}
			j.memo, j.buildKey = memo, key
			t := v.(*hashTable)
			return t, t.serve(c)
		}
	}
	before := c.built
	run, err := drainKeyed(j.R, newKeyEncoder(c, j.RKeys, j.RVar), nil)
	if err != nil {
		return nil, err
	}
	t, err := buildTable(c, run)
	if err != nil || memo == nil {
		return t, err
	}
	t.charge = buildCharge{bytes: c.built.bytes - before.bytes, sites: c.built.sites - before.sites}
	v, kept := memo.Store(key, t)
	if kept {
		j.memo, j.buildKey = memo, key
	}
	return v.(*hashTable), nil
}

// pinRight returns the memo the build over the right input belongs in, with
// the build's key there, and the input's leaf scans: nil unless the input is
// a closed subtree whose every leaf reads a stored table. It takes every
// leaf's snapshot before anything is drained, so a fill reads exactly the
// snapshots its key names, and the memo is the newest one's: writes to one
// table leave no entries in the memos of the others.
func (j *Join) pinRight() (*storage.Memo, string, []*TableScan, error) {
	var b strings.Builder
	b.Grow(128) // a bare scan's key and most subtrees' in one allocation
	leaves := make([]*TableScan, 0, 4)
	b.WriteByte('B')
	if !appendPlanForm(&b, j.R, &leaves) || !appendForms(&b, j.RKeys, j.Ctx.Ev.Args, j.RVar) {
		return nil, "", nil, nil
	}
	var home *storage.Memo
	for _, s := range leaves {
		m, err := s.pin()
		if err != nil {
			return nil, "", nil, err
		}
		var id [8]byte
		binary.LittleEndian.PutUint64(id[:], m.ID())
		b.Write(id[:])
		if home == nil || m.ID() > home.ID() {
			home = m
		}
	}
	return home, b.String(), leaves, nil
}

// serve charges a query that a kept table serves what filling it charged,
// at once: one pass through the hash.build fault point per build site of
// the fill and the fill's bytes in one budget call. A build-budget verdict
// and an armed hash.build rule then do not depend on which query happened to
// fill the memo.
func (t *hashTable) serve(c *Ctx) error {
	if err := c.checkBatch(); err != nil {
		return err
	}
	for range t.charge.sites {
		if err := faultinject.Hit(faultinject.PointHashBuild); err != nil {
			return err
		}
	}
	c.built.bytes += t.charge.bytes
	c.built.sites += t.charge.sites
	if c.Gov == nil {
		return nil
	}
	return c.Gov.AddBuildBytes(t.charge.bytes)
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
	if j.memo == nil || !compiled || j.Residual != nil || j.LVar == j.RVar {
		return nil
	}
	var b strings.Builder
	b.Grow(len(j.buildKey) + 32)
	b.WriteByte('G')
	b.WriteString(j.buildKey)
	if !appendForm(&b, j.Fn, j.Ctx.Ev.Args, j.RVar, "") {
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

// Forms. A form is a byte string naming what an operator subtree or an
// expression computes, with variables named by position rather than by name:
// two subtrees with one form over the same snapshots produce the same rows.
// Every form is prefix-free — each node opens with its own tag, names are
// length-prefixed, lists are counted — so forms concatenate unambiguously.

// appendPlanForm appends the form of the operator subtree it and collects
// its leaf scans, or reports false when the subtree is not closed: when it
// holds an operator other than a table scan, filter, map, or a hash or
// nested-loop join, a scan read through an index, or an expression without a
// form. An index is not part of the snapshot whose memo would keep the
// build, so a scan through one never has a form.
func appendPlanForm(b *strings.Builder, it BatchIterator, leaves *[]*TableScan) bool {
	switch n := it.(type) {
	case *TableScan:
		if n.Ix != nil {
			return false
		}
		b.WriteByte('S')
		appendName(b, n.Table)
		*leaves = append(*leaves, n)
		return true
	case *Filter:
		b.WriteByte('F')
		return appendOptional(b, n.Pred, n.Ctx.Ev.Args, appendPred, n.Var, "") && appendPlanForm(b, n.In, leaves)
	case *Map:
		b.WriteByte('M')
		b.WriteByte(flagByte(n.Distinct))
		return appendForm(b, n.Out, n.Ctx.Ev.Args, n.Var, "") && appendPlanForm(b, n.In, leaves)
	case *Join:
		return n.appendForm(b, leaves)
	}
	return false
}

// appendForm appends the join's form: method, kind, keys, residual, nest
// function, label, test and output — each expression over the variables it
// is compiled against — the outer join's padding labels, and both inputs.
func (j *Join) appendForm(b *strings.Builder, leaves *[]*TableScan) bool {
	if j.Method != JoinHash && j.Method != JoinNL {
		return false
	}
	args := j.Ctx.Ev.Args
	b.WriteByte('J')
	b.WriteByte(byte(j.Method))
	b.WriteByte(byte(j.Kind))
	if !appendForms(b, j.LKeys, args, j.LVar) || !appendForms(b, j.RKeys, args, j.RVar) ||
		!appendOptional(b, j.Residual, args, appendPred, j.LVar, j.RVar) ||
		!appendOptional(b, j.Fn, args, appendForm, j.LVar, j.RVar) {
		return false
	}
	appendName(b, j.Label)
	if !appendOptional(b, j.Test, args, appendPred, j.LVar, j.Label) ||
		!appendOptional(b, j.Out, args, appendForm, j.LVar, j.outVar()) {
		return false
	}
	if j.Fn == nil && j.Kind == algebra.JoinLeftOuter {
		if j.RElem == nil {
			return false
		}
		appendCount(b, len(j.RElem.Fields))
		for _, f := range j.RElem.Fields {
			appendName(b, f.Label)
		}
	}
	return appendPlanForm(b, j.L, leaves) && appendPlanForm(b, j.R, leaves)
}

// appendForms appends the forms of keys, each over v.
func appendForms(b *strings.Builder, keys []tmql.Expr, args []value.Value, v string) bool {
	appendCount(b, len(keys))
	for _, k := range keys {
		if !appendForm(b, k, args, v, "") {
			return false
		}
	}
	return true
}

// appendOptional appends the form of e under form, or an absence tag for a
// nil e.
func appendOptional(b *strings.Builder, e tmql.Expr, args []value.Value,
	form func(*strings.Builder, tmql.Expr, []value.Value, string, string) bool, n1, n2 string) bool {
	if e == nil {
		b.WriteByte('-')
		return true
	}
	b.WriteByte('+')
	return form(b, e, args, n1, n2)
}

// appendForm appends the form of e, a scalar expression over the rows bound
// to n1 and n2 (n2 may be ""), or reports false when e has none: when e does
// not compile without the evaluator (compileScalar2), reads any other
// variable, or holds a literal that is not a scalar. A slotted literal's form
// is its argument's in args, what the compiled expression reads, so builds
// of one plan for other constants never share a form.
func appendForm(b *strings.Builder, e tmql.Expr, args []value.Value, n1, n2 string) bool {
	switch n := e.(type) {
	case *tmql.Lit:
		return appendLit(b, n.Value(args))
	case *tmql.Var:
		switch {
		case n.Name == n1:
			b.WriteString("v0")
		case n2 != "" && n.Name == n2:
			b.WriteString("v1")
		default:
			return false
		}
		return true
	case *tmql.FieldSel:
		b.WriteByte('.')
		appendName(b, n.Label)
		return appendForm(b, n.X, args, n1, n2)
	case *tmql.Agg:
		b.WriteByte('a')
		b.WriteByte(byte(n.Kind))
		return appendForm(b, n.X, args, n1, n2)
	case *tmql.TupleCons:
		b.WriteByte('t')
		appendCount(b, len(n.Fields))
		for i, f := range n.Fields {
			if slices.ContainsFunc(n.Fields[:i], func(g tmql.TupleField) bool { return g.Label == f.Label }) {
				return false // duplicate labels: the evaluator reports them
			}
			appendName(b, f.Label)
			if !appendForm(b, f.E, args, n1, n2) {
				return false
			}
		}
		return true
	}
	return false
}

// appendPred appends the form of predicate e over n1 and n2, or reports
// false when it has none: when it does not compile without the evaluator
// (compilePred2) or an operand has no form.
func appendPred(b *strings.Builder, e tmql.Expr, args []value.Value, n1, n2 string) bool {
	bin, ok := e.(*tmql.Binary)
	if !ok {
		return false
	}
	switch {
	case bin.Op == tmql.OpAnd || bin.Op == tmql.OpOr:
		b.WriteByte('p')
		b.WriteByte(byte(bin.Op))
		return appendPred(b, bin.L, args, n1, n2) && appendPred(b, bin.R, args, n1, n2)
	case compiledComparison(bin.Op):
		b.WriteByte('c')
		b.WriteByte(byte(bin.Op))
		return appendForm(b, bin.L, args, n1, n2) && appendForm(b, bin.R, args, n1, n2)
	}
	return false
}

// appendLit appends a scalar literal: its kind and its exact bits, so 1 and
// 1.0 — equal values of different kinds — keep different forms.
func appendLit(b *strings.Builder, v value.Value) bool {
	var buf [binary.MaxVarintLen64 + 2]byte
	enc := append(buf[:0], 'l', byte(v.Kind()))
	switch v.Kind() {
	case value.KindNull:
	case value.KindBool:
		enc = append(enc, flagByte(v.AsBool()))
	case value.KindInt:
		enc = binary.AppendVarint(enc, v.AsInt())
	case value.KindFloat:
		enc = binary.AppendUvarint(enc, math.Float64bits(v.AsFloat()))
	case value.KindString:
		b.Write(enc)
		appendName(b, v.AsString())
		return true
	default:
		return false
	}
	b.Write(enc)
	return true
}

// appendName appends s length-prefixed.
func appendName(b *strings.Builder, s string) {
	appendCount(b, len(s))
	b.WriteString(s)
}

// appendCount appends n as a uvarint.
func appendCount(b *strings.Builder, n int) {
	var buf [binary.MaxVarintLen64]byte
	b.Write(binary.AppendUvarint(buf[:0], uint64(n)))
}

// flagByte is a boolean's byte in a form.
func flagByte(f bool) byte {
	if f {
		return 1
	}
	return 0
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
