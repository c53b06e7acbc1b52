package planner

import (
	"fmt"

	"tmdb/internal/algebra"
	"tmdb/internal/eval"
	"tmdb/internal/exec"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Access-path selection for single-table selections. A selection whose
// input is a direct scan (possibly through further selections and the
// single-field wrapper Maps the flat-join translation introduces) and whose
// equality conjuncts compare stored attributes against plan-time constants
// can be served by a persistent index: the longest index prefix covered by
// those conjuncts is probed point-wise, uncovered conjuncts become a
// residual filter, and the base scan is never materialized. Like the
// join-side FindIndexProbe, the shape test runs inside the shared resolver
// (resolve.go).

// AccessPath selects how leaf selections read their tables.
type AccessPath uint8

// Access-path choices.
const (
	// AccessAuto (the zero value) lets the cost-based enumeration decide:
	// Choose costs both full-scan and index-scan variants when an index
	// matches. At compile time it behaves like AccessScan.
	AccessAuto AccessPath = iota
	// AccessScan forces full scans (the pre-index behavior).
	AccessScan
	// AccessIndex compiles matching selections to exec.IndexScan, falling
	// back to scans where no live index matches. Shown as "idxscan" in
	// EXPLAIN.
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

// AccessChain unwraps a selection input down to its scan leaf, accepting
// only the shapes the index scan can reproduce above the bucket rows:
// further selections and the single-field wrapper Maps resolveScanAttr
// already sees through. It returns the intermediate nodes top-down (empty
// for a direct σ-over-scan) and the scan.
func AccessChain(p algebra.Plan) (chain []algebra.Plan, scan *algebra.Scan, ok bool) {
	for {
		switch n := p.(type) {
		case *algebra.Scan:
			return chain, n, true
		case *algebra.Select:
			chain = append(chain, n)
			p = n.In
		case *algebra.Map:
			if algebra.WrapperLabel(n) == "" {
				return nil, nil, false
			}
			chain = append(chain, n)
			p = n.In
		default:
			return nil, nil, false
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
// per combination. The longest covered prefix wins, ties prefer the shorter
// index — the same preference FindIndexProbe applies on the join side.
func FindIndexScan(n *algebra.Select, indexesOf func(table string) [][]string) (IndexScanMatch, bool) {
	_, scan, ok := AccessChain(n.In)
	if !ok {
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
	var best IndexScanMatch
	var bestCovered []int
	for _, attrs := range indexesOf(scan.Table) {
		var lists [][]tmql.Expr
		var covered []int
		points := 1
		for _, attr := range attrs {
			c, ok := eq[attr]
			if !ok || points*len(c.keys) > maxIndexScanPoints {
				break
			}
			points *= len(c.keys)
			lists = append(lists, c.keys)
			covered = append(covered, c.pos)
		}
		if len(lists) == 0 {
			continue
		}
		if len(lists) > best.Depth || (len(lists) == best.Depth && len(attrs) < len(best.IndexAttrs)) {
			best = IndexScanMatch{Table: scan.Table, IndexAttrs: attrs, Depth: len(lists), Points: crossPoints(lists)}
			bestCovered = covered
		}
	}
	if best.Depth == 0 {
		return IndexScanMatch{}, false
	}
	isCovered := make(map[int]bool, len(bestCovered))
	for _, p := range bestCovered {
		isCovered[p] = true
	}
	var rest []tmql.Expr
	for i, c := range conjuncts {
		if !isCovered[i] {
			rest = append(rest, c)
		}
	}
	best.Residual = tmql.JoinAnd(rest)
	return best, true
}

// matchEqConsts matches one conjunct to a stored attribute of table and its
// constant alternatives: attr = const in either orientation (one
// alternative, any closed expression), attr IN {const, …}, or an OR of
// attr = const equalities over a single attribute. Multi-constant shapes
// accept any closed constant expression — literals fast-pathed, the rest
// evaluated at plan time — deduplicated by the canonical key of their
// values, so the expanded points address pairwise-disjoint buckets and the
// concatenating exec.IndexScan never produces a row twice. No match returns
// an empty list.
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
			db, ok := d.(*tmql.Binary)
			if !ok || db.Op != tmql.OpEq {
				return "", nil
			}
			matched := false
			for _, side := range [2][2]tmql.Expr{{db.L, db.R}, {db.R, db.L}} {
				attrE, constE := side[0], side[1]
				if _, ok := constKey(constE); !ok {
					continue
				}
				tab, a, ok := resolveScanAttr(in, varName, attrE)
				if !ok || tab != table || (attr != "" && a != attr) {
					continue
				}
				attr, matched = a, true
				consts = append(consts, constE)
				break
			}
			if !matched {
				return "", nil
			}
		}
		return attr, dedupConsts(consts)
	}
	return "", nil
}

// constKey returns the canonical key of a closed constant expression's
// plan-time value. Literals skip the evaluator; any other expression must be
// closed (no free variables) and evaluate against no database — plan-time
// evaluation that fails (say, an extension reference) reports ok=false and
// the caller falls back to the scan path.
func constKey(e tmql.Expr) (string, bool) {
	if lit, ok := e.(*tmql.Lit); ok {
		return value.Key(lit.V), true
	}
	if len(tmql.FreeVars(e)) != 0 {
		return "", false
	}
	v, err := eval.New(nil).Eval(e)
	if err != nil {
		return "", false
	}
	return value.Key(v), true
}

// dedupConsts keeps the closed constant expressions of es deduplicated by
// the canonical key of their plan-time values; any open or unevaluable
// expression poisons the whole list. The expanded points must address
// pairwise-disjoint buckets (the concatenating exec.IndexScan never produces
// a row twice), so an alternative the planner cannot pin disqualifies the
// multi-point expansion.
func dedupConsts(es []tmql.Expr) []tmql.Expr {
	seen := make(map[string]bool, len(es))
	var out []tmql.Expr
	for _, e := range es {
		k, ok := constKey(e)
		if !ok {
			return nil
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, e)
	}
	return out
}

// crossPoints expands per-attribute constant alternatives into the cartesian
// product of key points, in index-attribute order.
func crossPoints(lists [][]tmql.Expr) [][]tmql.Expr {
	points := [][]tmql.Expr{nil}
	for _, alts := range lists {
		next := make([][]tmql.Expr, 0, len(points)*len(alts))
		for _, p := range points {
			for _, a := range alts {
				pt := make([]tmql.Expr, len(p), len(p)+1)
				copy(pt, p)
				next = append(next, append(pt, a))
			}
		}
		points = next
	}
	return points
}

// compileIndexScan compiles a matched selection to the index-backed access
// path: an IndexScan at the leaf (probing the matched prefix, applying the
// residual when the selection sits directly over the scan) with the
// intermediate chain nodes — further selections and wrapper Maps — rebuilt
// above the bucket rows.
func (p *Planner) compileIndexScan(n *algebra.Select, m IndexScanMatch, ix *storage.HashIndex) (exec.BatchIterator, error) {
	chain, _, ok := AccessChain(n.In)
	if !ok {
		return nil, fmt.Errorf("planner: index-scan match without an access chain on %s", n.Describe())
	}
	leaf := &exec.IndexScan{
		Ctx: p.ctx, Ix: ix, Depth: m.Depth,
		Points: m.Points,
	}
	if len(chain) == 0 {
		// Direct σ-over-scan: the operator applies the residual itself.
		leaf.Var, leaf.Residual = n.Var, m.Residual
		return leaf, nil
	}
	var it exec.BatchIterator = leaf
	for i := len(chain) - 1; i >= 0; i-- {
		switch c := chain[i].(type) {
		case *algebra.Select:
			it = &exec.Filter{Ctx: p.ctx, In: it, Var: c.Var, Pred: c.Pred}
		case *algebra.Map:
			it = p.compileMap(c, it)
		}
	}
	if m.Residual != nil {
		it = &exec.Filter{Ctx: p.ctx, In: it, Var: n.Var, Pred: m.Residual}
	}
	return it, nil
}
