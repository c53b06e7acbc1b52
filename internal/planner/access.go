package planner

import (
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
// plan-time constants can be served by a persistent index: the scan reads
// only the buckets of the longest index prefix those conjuncts cover, point
// by point, and the selection's filter checks the uncovered conjuncts, its
// residual. Selections between it and the scan stay plain filters over the
// bucket rows. Like the join-side FindIndexProbe, the shape test runs when a
// plan is resolved (resolve.go). Under either source a filter never sees a
// row that its source skips.

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
	// Points holds the constant key points, each a list of Depth expressions
	// in index order. A plain conjunction of equalities yields one point;
	// OR/IN-list equality disjuncts over covered attributes multiply out into
	// several (capped at maxIndexScanPoints), each addressing a disjoint
	// bucket.
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
// one attribute (constants being closed expressions the planner can evaluate
// at plan time, not just literals) — must cover a non-empty prefix of some
// live index. Multi-point
// conjuncts expand into the cartesian product of their constants, one point
// per combination. The index is chosen by longestCovered, as on the join
// side.
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
// alternatives(attr) is how many constants address attr: 0 when none does,
// more than 1 for a multi-point conjunct; a prefix stops before its points,
// the product of its alternatives, would exceed maxIndexScanPoints. The
// longest covered prefix wins — deeper probes hit smaller buckets — and ties
// go to the shorter index, then to the first listed, so the choice is
// deterministic. FindIndexScan and FindIndexProbe both choose by it.
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
// constant alternatives: attr = const in either orientation (one
// alternative, any closed expression), attr IN {const, …}, or an OR of
// attr = const equalities over a single attribute. Multi-constant shapes
// accept any closed constant expression — literals fast-pathed, the rest
// evaluated at plan time — deduplicated by the canonical key of their
// values, so the expanded points address pairwise-disjoint buckets and the
// scan concatenating them never produces a row twice. No match returns an
// empty list.
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
		tab, attr, ok := resolveScanAttr(in, varName, b.L)
		if !ok || tab != table {
			return "", nil
		}
		return attr, dedupConsts(set.Elems)
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
		return attr, dedupConsts(consts)
	}
	return "", nil
}

// constValue returns a closed constant expression's plan-time value.
// Literals skip the evaluator; any other expression must be closed (no free
// variables) and evaluate against no database — plan-time evaluation that
// fails (say, an extension reference) reports ok=false and the caller falls
// back to the scan path.
func constValue(e tmql.Expr) (value.Value, bool) {
	if lit, ok := e.(*tmql.Lit); ok {
		return lit.V, true
	}
	if len(tmql.FreeVars(e)) != 0 {
		return value.Value{}, false
	}
	v, err := eval.New(nil).Eval(e)
	if err != nil {
		return value.Value{}, false
	}
	return v, true
}

// Leading-label ranges. A stored table is a set in canonical order, and
// every row of a tuple-typed table carries exactly the type's labels, so the
// rows are sorted on the first label. A selection whose input chains down to
// a scan of such a table (chainScan) and whose conjuncts compare that label
// with closed constants — v.a θ c or c θ v.a, θ one of = < <= > >= — narrows
// the scan to the intersection of those conjuncts' ranges, and
// exec.TableScan reads only that run of the chunks (storage.KeyRange.Cut).
// The whole predicate stays as the filter above the scan, so the range need
// only hold every row the filter keeps, and it does for every kind:
// eval.Apply defines the five comparisons by value.Compare, the order the
// cut searches by. Scans of KAny and KClass element types are never
// narrowed. As under an index source, the filter never sees a row outside
// the range: a conjunct that would fail on such a row (1 / 0) fails the query
// no more than it would if the range's conjunct came first in the AND.

// leadingRange returns the range n's leading-label conjuncts narrow the scan
// beneath it to, or false when there is none. A selection without such a
// conjunct costs a walk of its AND tree and no allocation.
func leadingRange(n *algebra.Select) (storage.KeyRange, bool) {
	scan := chainScan(n.In)
	if scan == nil {
		return storage.KeyRange{}, false
	}
	elem := scan.Elem()
	if elem == nil || elem.Kind != types.KTuple || len(elem.Fields) == 0 {
		return storage.KeyRange{}, false
	}
	var r storage.KeyRange
	ok := narrowBy(&r, n.Pred, n, scan.Table, elem.Fields[0].Label)
	return r, ok
}

// narrowBy intersects r with the range of every conjunct of p that compares
// the leading label of table with a closed constant, and reports whether
// there was one.
func narrowBy(r *storage.KeyRange, p tmql.Expr, n *algebra.Select, table, label string) bool {
	b, ok := p.(*tmql.Binary)
	if !ok {
		return false
	}
	switch b.Op {
	case tmql.OpAnd:
		l := narrowBy(r, b.L, n, table, label)
		return narrowBy(r, b.R, n, table, label) || l
	case tmql.OpEq, tmql.OpLt, tmql.OpLe, tmql.OpGt, tmql.OpGe:
	default:
		return false
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
		c, ok := constValue(side[1])
		if !ok {
			continue
		}
		op := b.Op
		if k == 1 {
			op = flipCompare(op)
		}
		switch op {
		case tmql.OpEq:
			narrowLo(r, storage.Bound{V: c, Set: true})
			narrowHi(r, storage.Bound{V: c, Set: true})
		case tmql.OpLt, tmql.OpLe:
			narrowHi(r, storage.Bound{V: c, Set: true, Strict: op == tmql.OpLt})
		default:
			narrowLo(r, storage.Bound{V: c, Set: true, Strict: op == tmql.OpGt})
		}
		return true
	}
	return false
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

// intersect returns the range both a and b contain, a nil range being the
// unbounded one.
func intersect(a, b *storage.KeyRange) *storage.KeyRange {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	r := *a
	narrowLo(&r, b.Lo)
	narrowHi(&r, b.Hi)
	return &r
}

// dedupConsts keeps the closed constant expressions of es deduplicated by
// the canonical key of their plan-time values; any open or unevaluable
// expression poisons the whole list. The expanded points must address
// pairwise-disjoint buckets (the scan concatenating them never produces a
// row twice), so an alternative the planner cannot pin disqualifies the
// multi-point expansion.
func dedupConsts(es []tmql.Expr) []tmql.Expr {
	seen := make(map[string]bool, len(es))
	var out []tmql.Expr
	for _, e := range es {
		v, ok := constValue(e)
		if !ok {
			return nil
		}
		k := value.Key(v)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, e)
	}
	return out
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
