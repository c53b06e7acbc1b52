package planner

import (
	"slices"

	"tmdb/internal/algebra"
	"tmdb/internal/eval"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Access paths for single-table selections. A stored table is read by one
// operator, exec.TableScan, whole or from one of two narrowed sources that a
// selection above it hands down through further selections and the
// single-field wrapper Maps the flat-join translation introduces (chainScan):
// a leading-label range (leadingRange, below), or an index lookup. A
// selection whose equality conjuncts compare stored attributes against
// closed constant expressions can be served by a persistent index: the scan
// reads only the buckets of the longest index prefix those conjuncts cover,
// point by point, and the selection's filter checks the uncovered conjuncts,
// its residual. Selections between it and the scan stay plain filters over
// the bucket rows. Like the join-side FindIndexProbe, the shape test runs
// when a plan is resolved (resolve.go). Resolution keeps the constants of
// either source as expressions: the scan evaluates its points under the
// query's arguments when it opens, and Compile its range, so one resolved
// tree serves every query of its shape. Under either source a filter never
// sees a row that its source skips.

// AccessPath selects how leaf selections read their tables.
type AccessPath uint8

// Access-path choices.
const (
	// AccessAuto (the zero value) lets the cost-based enumeration decide:
	// Choose costs both full-scan and index-scan variants when an index
	// matches. Resolved under it, a plan reads full scans, as under
	// AccessScan.
	AccessAuto AccessPath = iota
	// AccessScan forces full scans (the pre-index behavior).
	AccessScan
	// AccessIndex reads the scan beneath each matching selection through
	// its index, falling back to scans where no live index matches. Shown
	// as "idxscan" in EXPLAIN.
	AccessIndex
)

// String names the access-path choice.
func (a AccessPath) String() string {
	switch a {
	case AccessAuto:
		return "auto"
	case AccessScan:
		return "scan"
	case AccessIndex:
		return "idxscan"
	}
	return "access?"
}

// IndexScanMatch describes how a selection node can be answered from a
// persistent index.
type IndexScanMatch struct {
	// Table is the scanned extension at the bottom of the selection's input
	// chain.
	Table string
	// IndexAttrs is the full ordered attribute list of the chosen index.
	IndexAttrs []string
	// Depth is the covered prefix length.
	Depth int
	// Points holds the constant key points, each a list of Depth closed
	// expressions in index order. A plain conjunction of equalities yields
	// one point; OR/IN-list equality disjuncts over covered attributes
	// multiply out into several (capped at maxIndexScanPoints). Points may
	// repeat a key — equal constants, or slotted ones whose arguments are
	// equal — and the scan reads each distinct key's bucket once
	// (exec.TableScan), which distinctPoints counts.
	Points [][]tmql.Expr
	// Residual is the conjunction of the selection's uncovered conjuncts
	// (nil when the index covers the whole predicate).
	Residual tmql.Expr
}

// maxIndexScanPoints bounds the cartesian product of per-attribute constant
// alternatives a multi-point index scan enumerates; coverage stops extending
// the prefix before exceeding it.
const maxIndexScanPoints = 64

// Name returns the index's canonical registry name.
func (m IndexScanMatch) Name() string { return storage.IndexName(m.IndexAttrs) }

// chainScan returns the scan p chains down to through selections and
// single-field wrapper Maps, the nodes a narrowed source passes through, or
// nil when it does not.
func chainScan(p algebra.Plan) *algebra.Scan {
	for {
		switch n := p.(type) {
		case *algebra.Scan:
			return n
		case *algebra.Select:
			p = n.In
		case *algebra.Map:
			if algebra.WrapperLabel(n) == "" {
				return nil
			}
			p = n.In
		default:
			return nil
		}
	}
}

// FindIndexScan reports how the selection n can be served by a persistent
// index: its input must chain down to a scan, and its equality conjuncts —
// attr = const (either orientation; the attribute resolving through the
// chain to a stored attribute of the scanned table, the other side free of
// variables), attr IN {const, …}, or an OR of attr = const equalities over
// one attribute (constants being closed expressions, not just literals) —
// must cover a non-empty prefix of some live index. Multi-point conjuncts
// expand into the cartesian product of their constants, one point per
// combination. The index is chosen by longestCovered, as on the join side.
// No constant is evaluated: the match depends on the query's shape alone.
func FindIndexScan(n *algebra.Select, indexesOf func(table string) [][]string) (IndexScanMatch, bool) {
	scan := chainScan(n.In)
	if scan == nil {
		return IndexScanMatch{}, false
	}
	conjuncts := tmql.SplitAnd(n.Pred)
	// Map each stored attribute to its constant alternatives and conjunct
	// position; first conjunct per attribute wins.
	type eqConsts struct {
		keys []tmql.Expr
		pos  int
	}
	eq := make(map[string]eqConsts)
	for i, c := range conjuncts {
		attr, keys := matchEqConsts(c, n.In, n.Var, scan.Table)
		if len(keys) == 0 {
			continue
		}
		if _, dup := eq[attr]; !dup {
			eq[attr] = eqConsts{keys: keys, pos: i}
		}
	}
	if len(eq) == 0 {
		return IndexScanMatch{}, false
	}
	attrs, depth := longestCovered(indexesOf(scan.Table), func(attr string) int { return len(eq[attr].keys) })
	if depth == 0 {
		return IndexScanMatch{}, false
	}
	lists := make([][]tmql.Expr, depth)
	covered := make(map[int]bool, depth)
	for i, attr := range attrs[:depth] {
		lists[i] = eq[attr].keys
		covered[eq[attr].pos] = true
	}
	var rest []tmql.Expr
	for i, c := range conjuncts {
		if !covered[i] {
			rest = append(rest, c)
		}
	}
	return IndexScanMatch{Table: scan.Table, IndexAttrs: attrs, Depth: depth, Points: crossPoints(lists),
		Residual: tmql.JoinAnd(rest)}, true
}

// longestCovered picks among indexes, each an ordered attribute list, the one
// whose leading attributes the conjuncts cover furthest, and returns it with
// the covered prefix's length (0 when none covers even its first attribute).
// alternatives(attr) is how many constants address attr, repeats included: 0
// when none does, more than 1 for a multi-point conjunct; a prefix stops
// before its points, the product of its alternatives, would exceed
// maxIndexScanPoints. The longest covered prefix wins — deeper probes hit
// smaller buckets — and ties go to the shorter index, then to the first
// listed, so the choice is deterministic. FindIndexScan and FindIndexProbe
// both choose by it.
func longestCovered(indexes [][]string, alternatives func(attr string) int) (best []string, depth int) {
	for _, attrs := range indexes {
		d, points := 0, 1
		for _, attr := range attrs {
			n := alternatives(attr)
			if n == 0 || points*n > maxIndexScanPoints {
				break
			}
			points *= n
			d++
		}
		if d > depth || d > 0 && d == depth && len(attrs) < len(best) {
			best, depth = attrs, d
		}
	}
	return best, depth
}

// matchEqConsts matches one conjunct to a stored attribute of table and its
// constant alternatives: attr = const in either orientation, attr IN {const,
// …}, or an OR of attr = const equalities over a single attribute, every
// constant a closed expression. The alternatives may repeat a value; the
// scan reads each distinct key once. No match returns an empty list.
func matchEqConsts(c tmql.Expr, in algebra.Plan, varName, table string) (string, []tmql.Expr) {
	b, ok := c.(*tmql.Binary)
	if !ok {
		return "", nil
	}
	switch b.Op {
	case tmql.OpEq:
		for _, side := range [2][2]tmql.Expr{{b.L, b.R}, {b.R, b.L}} {
			attrE, constE := side[0], side[1]
			if len(tmql.FreeVars(constE)) != 0 {
				continue
			}
			tab, attr, ok := resolveScanAttr(in, varName, attrE)
			if !ok || tab != table {
				continue
			}
			return attr, []tmql.Expr{constE}
		}
	case tmql.OpIn:
		set, ok := b.R.(*tmql.SetCons)
		if !ok {
			return "", nil
		}
		open := func(e tmql.Expr) bool { return len(tmql.FreeVars(e)) != 0 }
		tab, attr, ok := resolveScanAttr(in, varName, b.L)
		if !ok || tab != table || slices.ContainsFunc(set.Elems, open) {
			return "", nil
		}
		return attr, set.Elems
	case tmql.OpOr:
		var attr string
		var consts []tmql.Expr
		for _, d := range tmql.SplitOr(c) {
			if db, ok := d.(*tmql.Binary); !ok || db.Op != tmql.OpEq {
				return "", nil
			}
			a, keys := matchEqConsts(d, in, varName, table)
			if len(keys) == 0 || attr != "" && a != attr {
				return "", nil
			}
			attr, consts = a, append(consts, keys...)
		}
		return attr, consts
	}
	return "", nil
}

// constValue returns a closed constant expression's value under args, the
// query's slot values (nil: the literals' own). Literals skip the evaluator;
// any other expression must be closed (no free variables) and evaluate
// against no database — evaluation that fails (say, an extension reference)
// reports ok=false, and the caller leaves the scan unnarrowed by it.
func constValue(e tmql.Expr, args []value.Value) (value.Value, bool) {
	if lit, ok := e.(*tmql.Lit); ok {
		return lit.Value(args), true
	}
	if len(tmql.FreeVars(e)) != 0 {
		return value.Value{}, false
	}
	ev := eval.New(nil)
	ev.Args = args
	v, err := ev.Eval(e)
	if err != nil {
		return value.Value{}, false
	}
	return v, true
}

// distinctPoints counts the distinct keys m's points address under args,
// each point's read once as the scan reads it; a point whose keys fail to
// evaluate counts as one of its own.
func (m IndexScanMatch) distinctPoints(args []value.Value) int {
	if len(m.Points) < 2 {
		return len(m.Points)
	}
	keys, failed := make(map[string]bool, len(m.Points)), 0
	var buf []byte
points:
	for _, pt := range m.Points {
		buf = buf[:0]
		for _, k := range pt {
			v, ok := constValue(k, args)
			if !ok {
				failed++
				continue points
			}
			buf = value.AppendKey(buf, v)
		}
		keys[string(buf)] = true
	}
	return len(keys) + failed
}

// Leading-label ranges. A stored table is a set in canonical order, and
// every row of a tuple-typed table carries exactly the type's labels, so the
// rows are sorted on the first label. A selection whose input chains down to
// a scan of such a table (chainScan) and whose conjuncts compare that label
// with closed constants — v.a θ c or c θ v.a, θ one of = < <= > >= — narrows
// the scan to the intersection of those conjuncts' ranges, and
// exec.TableScan reads only that run of the chunks (storage.KeyRange.Cut).
// Resolution records the conjuncts as bounds, and the range is their
// intersection under a query's arguments (bounds.keyRange), which Compile,
// the cost model and EXPLAIN each evaluate. The whole predicate stays as the
// filter above the scan, so the range need only hold every row the filter
// keeps, and it does for every kind: eval.Apply defines the five comparisons
// by value.Compare, the order the cut searches by. Scans of KAny and KClass
// element types are never narrowed. As under an index source, the filter
// never sees a row outside the range: a conjunct that would fail on such a
// row (1 / 0) fails the query no more than it would if the range's conjunct
// came first in the AND.

// bound is one leading-label conjunct, read as label op c.
type bound struct {
	op tmql.Op
	c  tmql.Expr
}

// bounds are the leading-label conjuncts narrowing a scan; nil narrows
// nothing.
type bounds []bound

// leadingRange returns the bounds n's leading-label conjuncts narrow the
// scan beneath it by, or false when there are none. A selection without such
// a conjunct costs a walk of its AND tree and no allocation.
func leadingRange(n *algebra.Select) (bounds, bool) {
	scan := chainScan(n.In)
	if scan == nil {
		return nil, false
	}
	elem := scan.Elem()
	if elem == nil || elem.Kind != types.KTuple || len(elem.Fields) == 0 {
		return nil, false
	}
	var bs bounds
	narrowBy(&bs, n.Pred, n, scan.Table, elem.Fields[0].Label)
	return bs, bs != nil
}

// narrowBy appends to bs every conjunct of p that compares the leading label
// of table with a closed constant.
func narrowBy(bs *bounds, p tmql.Expr, n *algebra.Select, table, label string) {
	b, ok := p.(*tmql.Binary)
	if !ok {
		return
	}
	switch b.Op {
	case tmql.OpAnd:
		narrowBy(bs, b.L, n, table, label)
		narrowBy(bs, b.R, n, table, label)
		return
	case tmql.OpEq, tmql.OpLt, tmql.OpLe, tmql.OpGt, tmql.OpGe:
	default:
		return
	}
	for k, side := range [2][2]tmql.Expr{{b.L, b.R}, {b.R, b.L}} {
		// The label test first: it decides most conjuncts without
		// allocating.
		if fs, ok := side[0].(*tmql.FieldSel); !ok || fs.Label != label {
			continue
		}
		if tab, attr, ok := resolveScanAttr(n.In, n.Var, side[0]); !ok || tab != table || attr != label {
			continue
		}
		if len(tmql.FreeVars(side[1])) != 0 {
			continue
		}
		op := b.Op
		if k == 1 {
			op = flipCompare(op)
		}
		*bs = append(*bs, bound{op: op, c: side[1]})
		return
	}
}

// keyRange is the range bs intersect to under args, the query's slot values
// (nil: the literals' own). A bound whose constant fails to evaluate
// narrows nothing.
func (bs bounds) keyRange(args []value.Value) storage.KeyRange {
	var r storage.KeyRange
	for _, b := range bs {
		c, ok := constValue(b.c, args)
		if !ok {
			continue
		}
		switch b.op {
		case tmql.OpEq:
			narrowLo(&r, storage.Bound{V: c, Set: true})
			narrowHi(&r, storage.Bound{V: c, Set: true})
		case tmql.OpLt, tmql.OpLe:
			narrowHi(&r, storage.Bound{V: c, Set: true, Strict: b.op == tmql.OpLt})
		default:
			narrowLo(&r, storage.Bound{V: c, Set: true, Strict: b.op == tmql.OpGt})
		}
	}
	return r
}

// narrowLo raises r's lower bound to b when b is the tighter one, narrowHi
// lowers its upper bound; an absent b leaves r as it is.
func narrowLo(r *storage.KeyRange, b storage.Bound) {
	if b.Set && tighter(b, r.Lo, 1) {
		r.Lo = b
	}
}

func narrowHi(r *storage.KeyRange, b storage.Bound) {
	if b.Set && tighter(b, r.Hi, -1) {
		r.Hi = b
	}
}

// tighter reports whether bound b excludes more than cur, both lower bounds
// (sign 1) or both upper ones (sign -1).
func tighter(b, cur storage.Bound, sign int) bool {
	if !cur.Set {
		return true
	}
	c := sign * value.Compare(b.V, cur.V)
	return c > 0 || c == 0 && b.Strict
}

// intersect returns the bounds of both a and b: the range they intersect to.
func intersect(a, b bounds) bounds {
	if a == nil {
		return b
	}
	return append(a[:len(a):len(a)], b...)
}

// crossPoints expands per-attribute constant alternatives into the cartesian
// product of key points, in index-attribute order, the last attribute's
// alternatives varying fastest; the points share one backing array.
func crossPoints(lists [][]tmql.Expr) [][]tmql.Expr {
	n, d := 1, len(lists)
	for _, alts := range lists {
		n *= len(alts)
	}
	flat, points := make([]tmql.Expr, n*d), make([][]tmql.Expr, n)
	for p := range points {
		points[p] = flat[p*d : (p+1)*d : (p+1)*d]
		for i, k := d-1, p; i >= 0; i-- {
			points[p][i] = lists[i][k%len(lists[i])]
			k /= len(lists[i])
		}
	}
	return points
}
