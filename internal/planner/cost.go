package planner

import (
	"fmt"
	"math"

	"tmdb/internal/algebra"
	"tmdb/internal/stats"
	"tmdb/internal/tmql"
)

// Cost modeling for logical plans. The model is the classical textbook one —
// cardinality estimates from per-table statistics, per-operator CPU cost in
// abstract "tuple visits" — and exists to (a) explain plans quantitatively,
// (b) let the engine choose strategy × join-implementation combinations by
// estimated cost instead of caller flags, and (c) let Estimate-driven tests
// assert the planner's physical choices match the §6 cost intuitions (hash
// builds on the right operand, nested loops quadratic, semijoin cheaper than
// nest join).
type Cost struct {
	// Rows is the estimated output cardinality.
	Rows float64
	// Work is the estimated total tuple visits to produce the output.
	Work float64
}

// String renders the estimate compactly.
func (c Cost) String() string {
	return fmt.Sprintf("rows≈%.0f work≈%.0f", c.Rows, c.Work)
}

// Estimator derives costs for plans against a database's statistics catalog.
// Statistics are computed lazily per table and cached in the catalog, so an
// estimator (or the engine holding the catalog) amortizes scans across
// queries.
type Estimator struct {
	stats *stats.Catalog
}

// NewEstimatorStats returns an estimator over an existing catalog (shared
// with the engine so per-table scans happen once).
func NewEstimatorStats(sc *stats.Catalog) *Estimator {
	return &Estimator{stats: sc}
}

// Stats returns the backing statistics catalog.
func (e *Estimator) Stats() *stats.Catalog { return e.stats }

func (e *Estimator) tableStats(name string) *stats.TableStats {
	return e.stats.Table(name)
}

// defaultSelectivity is used for predicates the model cannot analyze.
const defaultSelectivity = 0.33

// defaultDangling is the assumed dangling fraction when the operands are not
// direct scans with statistically known key attributes.
const defaultDangling = 0.5

// Estimate computes the cost of a logical plan compiled under spec; the zero
// spec is the auto mapping (hash where an equi-key exists, nested loops
// otherwise) over full scans. Output cardinalities are independent of the
// spec — only the work term changes. Under AccessIndex, selections served by
// a live index are costed as point probes. Infeasible specs (hash without an
// equi-key) are costed as their nested-loop fallback; feasibility is
// ImplInfeasible's job.
func (e *Estimator) Estimate(p algebra.Plan, spec PhysicalSpec) Cost {
	switch n := p.(type) {
	case *algebra.Scan:
		card := float64(e.tableStats(n.Table).Card)
		return Cost{Rows: card, Work: card}

	case *algebra.EvalNode:
		// Naive nested-loop evaluation: costed by walking the expression.
		return e.evalCost(n.Expr)

	case *algebra.Select:
		in := e.Estimate(n.In, spec)
		rows := in.Rows * e.predicateSelectivity(n.Pred, n.In, n.Var)
		if op := e.resolve(n, spec); op.indexScan {
			return Cost{Rows: rows, Work: e.indexScanWork(op.scan)}
		}
		return Cost{Rows: rows, Work: in.Work + in.Rows*e.rowWork(n.Pred)}

	case *algebra.Map:
		in := e.Estimate(n.In, spec)
		if op := e.resolve(n, spec); op.fused != nil {
			// The groupjoin: the nest join plus one test per left row,
			// emitting the selection's rows.
			nj := e.Estimate(op.fused, spec)
			return Cost{Rows: in.Rows, Work: nj.Work + nj.Rows*e.rowWork(op.test)}
		}
		return Cost{Rows: in.Rows, Work: in.Work + in.Rows*e.rowWork(n.Out)}

	case *algebra.Join:
		l, op, matches, work := e.joinWork(n, n.L, n.R, n.RVar, spec)
		dang := e.danglingFrac(n.L, n.LVar, op.lk, n.R, n.RVar, op.rk)
		rows := matches
		switch n.Kind {
		case algebra.JoinSemi:
			rows = l.Rows * (1 - dang)
		case algebra.JoinAnti:
			rows = l.Rows * dang
		case algebra.JoinLeftOuter:
			if rows < l.Rows {
				rows = l.Rows
			}
		}
		return Cost{Rows: rows, Work: work}

	case *algebra.NestJoin:
		// One output tuple per left element, always (dangling survive with ∅).
		l, _, _, work := e.joinWork(n, n.L, n.R, n.RVar, spec)
		return Cost{Rows: l.Rows, Work: work}

	case *algebra.Nest:
		in := e.Estimate(n.In, spec)
		return Cost{Rows: in.Rows * 0.5, Work: in.Work + in.Rows}

	case *algebra.Unnest:
		in := e.Estimate(n.In, spec)
		fanout := e.unnestFanout(n)
		return Cost{Rows: in.Rows * fanout, Work: in.Work + in.Rows*fanout}

	case *algebra.SetOp:
		l := e.Estimate(n.L, spec)
		r := e.Estimate(n.R, spec)
		rows := l.Rows
		switch n.Kind {
		case algebra.SetUnion:
			rows = l.Rows + r.Rows
		case algebra.SetIntersect:
			if r.Rows < rows {
				rows = r.Rows
			}
		}
		return Cost{Rows: rows, Work: l.Work + r.Work + l.Rows + r.Rows}
	}
	return Cost{Rows: 1, Work: 1}
}

// rowWork is the cost of evaluating a Select's or Map's expression x on one
// row: one visit, plus the naive cost of every subquery over a stored
// extension that x embeds, which the evaluator runs afresh for each row.
func (e *Estimator) rowWork(x tmql.Expr) float64 {
	work := 1.0
	tmql.Walk(x, func(n tmql.Expr) bool {
		if !tableSubquery(n) {
			return true
		}
		work += e.evalCost(n).Work
		return false
	})
	return work
}

// tableSubquery reports whether n is a subquery over a stored extension.
func tableSubquery(n tmql.Expr) bool {
	sfw, ok := n.(*tmql.SFW)
	return ok && len(tmql.Tables(sfw)) > 0
}

// NaiveLeaves counts the naive leaves of p: the EvalNode, Select and Map
// operators whose expression embeds a subquery over a stored extension, so
// that the evaluator runs it (once per row, for a Select or Map — the
// subqueries rowWork charges).
func NaiveLeaves(p algebra.Plan) int {
	n := 0
	algebra.Walk(p, func(op algebra.Plan) bool {
		var x tmql.Expr
		switch op := op.(type) {
		case *algebra.EvalNode:
			x = op.Expr
		case *algebra.Select:
			x = op.Pred
		case *algebra.Map:
			x = op.Out
		}
		naive := false
		tmql.Walk(x, func(e tmql.Expr) bool {
			naive = naive || tableSubquery(e)
			return !naive
		})
		if naive {
			n++
		}
		return true
	})
	return n
}

// indexScanWork is the probe-cost model for an index-served selection: one
// hash lookup per point, the matched prefix level's expected bucket visited
// once, and each bucket row re-checked against the residual and the chain
// nodes above the leaf. The expected bucket depth comes from the index's
// per-bucket depth statistics (stats.Catalog.IndexDepth); the base scan is
// never paid. Multi-point scans (OR/IN-list disjuncts) pay the per-point
// cost once per point.
func (e *Estimator) indexScanWork(m IndexScanMatch) float64 {
	avg := 1.0
	if prof, ok := e.stats.IndexDepth(m.Table, m.IndexAttrs, m.Depth); ok && prof.AvgBucket > 0 {
		avg = prof.AvgBucket
	}
	// Per point: one lookup + one visit per bucket row + one residual/chain
	// re-check per bucket row.
	return float64(len(m.Points)) * (1 + 2*avg)
}

// joinWork costs join-family node n (operands lp and rp, the right iterated
// as rvar) under the operator it resolves to, returning the left operand's
// estimate, the resolved operator, the expected matching pairs and the
// node's total work. Nested loops evaluate the predicate over the cross
// product; hash pays one visit per tuple on each side plus the matches
// emitted; sort-merge adds the n·log n ordering passes on top of a hash-like
// merge; an index-served operator never drains the right input — the persistent index
// pre-exists, so neither the right subtree's work nor a build pass is paid,
// only the per-left-row probe and the emitted matches.
func (e *Estimator) joinWork(n, lp, rp algebra.Plan, rvar string, spec PhysicalSpec) (l Cost, op physOp, matches, work float64) {
	l, r := e.Estimate(lp, spec), e.Estimate(rp, spec)
	op = e.resolve(n, spec)
	sel := defaultSelectivity
	if len(op.lk) > 0 {
		sel = e.keySelectivity(rp, rvar, op.rk)
	}
	matches = l.Rows * r.Rows * sel
	var probe float64
	switch {
	case op.family == ImplIndex:
		return l, op, matches, l.Work + l.Rows + matches
	case op.family == ImplNestedLoop:
		probe = l.Rows * r.Rows
	case op.family == ImplMerge:
		probe = sortCost(l.Rows) + sortCost(r.Rows) + l.Rows + r.Rows + matches
	default: // hash
		probe = l.Rows + r.Rows + matches
	}
	return l, op, matches, l.Work + r.Work + probe
}

func sortCost(n float64) float64 {
	if n < 2 {
		return n
	}
	return n * math.Log2(n)
}

// unnestFanout estimates μ fan-out from the average set cardinality of the
// unnested attribute when the input is a direct scan, else a constant 3.
func (e *Estimator) unnestFanout(n *algebra.Unnest) float64 {
	if s, ok := n.In.(*algebra.Scan); ok {
		if avg, ok := e.tableStats(s.Table).AvgSetLen[n.Attr]; ok && avg > 0 {
			return avg
		}
	}
	return 3.0
}

// keySelectivity estimates 1/NDV of the join key on the right operand. When
// the key resolves to a stored attribute (direct scan, filtered scan, or the
// flat-join single-field wrapper over either), that attribute's distinct
// count — exact or sketch-estimated, see internal/stats — is used; otherwise
// fall back to the most selective attribute of a directly scanned table, or
// 0.1.
func (e *Estimator) keySelectivity(r algebra.Plan, rvar string, rkeys []tmql.Expr) float64 {
	if len(rkeys) > 0 {
		if tab, attr, ok := resolveScanAttr(r, rvar, rkeys[0]); ok {
			if d, ok := e.tableStats(tab).Distinct[attr]; ok && d > 0 {
				return 1.0 / float64(d)
			}
		}
	}
	s, ok := r.(*algebra.Scan)
	if !ok {
		return 0.1
	}
	st := e.tableStats(s.Table)
	best := 0.1
	for _, d := range st.Distinct {
		if d > 0 {
			if sel := 1.0 / float64(d); sel < best {
				best = sel
			}
		}
	}
	return best
}

// danglingFrac estimates the fraction of left tuples with no join partner.
// When both key sides resolve to stored attributes the statistics catalog
// answers (exactly below its threshold, by histogram overlap above it);
// otherwise the conventional default 0.5.
func (e *Estimator) danglingFrac(l algebra.Plan, lvar string, lkeys []tmql.Expr,
	r algebra.Plan, rvar string, rkeys []tmql.Expr) float64 {
	if len(lkeys) == 0 || len(rkeys) == 0 {
		return defaultDangling
	}
	lt, la, ok := resolveScanAttr(l, lvar, lkeys[0])
	if !ok {
		return defaultDangling
	}
	rt, ra, ok := resolveScanAttr(r, rvar, rkeys[0])
	if !ok {
		return defaultDangling
	}
	return e.stats.DanglingFrac(lt, la, rt, ra)
}

// resolveScanAttr resolves an attribute expression over varName to the
// underlying stored (table, attribute): either varName.attr with the plan a
// (possibly filtered) scan, or varName.w.attr with the plan containing the
// single-field wrapper Map labeled w over a scan — the shape the flat-join
// translation and the join-order search build for every FROM source. This is
// what threads histogram selectivities through wrapped join chains.
func resolveScanAttr(p algebra.Plan, varName string, e tmql.Expr) (table, attr string, ok bool) {
	fs, isSel := e.(*tmql.FieldSel)
	if !isSel {
		return "", "", false
	}
	switch x := fs.X.(type) {
	case *tmql.Var:
		if x.Name != varName {
			return "", "", false
		}
		if s := unwrapToScan(p); s != nil {
			return s.Table, fs.Label, true
		}
	case *tmql.FieldSel:
		v, isVar := x.X.(*tmql.Var)
		if !isVar || v.Name != varName {
			return "", "", false
		}
		if s := findWrapperScan(p, x.Label); s != nil {
			return s.Table, fs.Label, true
		}
	}
	return "", "", false
}

// unwrapToScan sees through selections to a scan leaf (selections restrict
// rows but keep the stored attribute statistics usable as approximations).
func unwrapToScan(p algebra.Plan) *algebra.Scan {
	for {
		switch n := p.(type) {
		case *algebra.Scan:
			return n
		case *algebra.Select:
			p = n.In
		default:
			return nil
		}
	}
}

// findWrapperScan finds the scan beneath the single-field wrapper Map
// introducing label w anywhere inside p.
func findWrapperScan(p algebra.Plan, w string) *algebra.Scan {
	var found *algebra.Scan
	algebra.Walk(p, func(n algebra.Plan) bool {
		if m, ok := n.(*algebra.Map); ok && found == nil && algebra.WrapperLabel(m) == w {
			found = unwrapToScan(m.In)
		}
		return found == nil
	})
	return found
}

// predicateSelectivity assigns selectivities by predicate shape: equality
// and range comparisons against literals use the attribute's equi-depth
// histogram when the attribute resolves to a stored one; plain equality
// falls back to 1/NDV; anything else gets the defaults.
func (e *Estimator) predicateSelectivity(pred tmql.Expr, in algebra.Plan, varName string) float64 {
	b, ok := pred.(*tmql.Binary)
	if !ok {
		return defaultSelectivity
	}
	switch b.Op {
	case tmql.OpEq, tmql.OpLt, tmql.OpLe, tmql.OpGt, tmql.OpGe:
		if sel, ok := e.compareSelectivity(b, in, varName); ok {
			return sel
		}
		if b.Op == tmql.OpEq {
			if fs, ok := b.L.(*tmql.FieldSel); ok {
				if tab, attr, ok := resolveScanAttr(in, varName, fs); ok {
					return e.tableStats(tab).Selectivity(attr)
				}
			}
			return 0.1
		}
		return defaultSelectivity
	case tmql.OpAnd:
		return e.predicateSelectivity(b.L, in, varName) * e.predicateSelectivity(b.R, in, varName)
	case tmql.OpOr:
		sl := e.predicateSelectivity(b.L, in, varName)
		sr := e.predicateSelectivity(b.R, in, varName)
		return sl + sr - sl*sr
	}
	return defaultSelectivity
}

// compareSelectivity estimates an attribute-vs-literal comparison through
// the attribute's histogram. ok is false when the shape doesn't match or no
// histogram exists.
func (e *Estimator) compareSelectivity(b *tmql.Binary, in algebra.Plan, varName string) (float64, bool) {
	attrE, litE, op := b.L, b.R, b.Op
	if _, isLit := attrE.(*tmql.Lit); isLit {
		attrE, litE = litE, attrE
		op = flipCompare(op)
	}
	lit, isLit := litE.(*tmql.Lit)
	if !isLit {
		return 0, false
	}
	tab, attr, ok := resolveScanAttr(in, varName, attrE)
	if !ok {
		return 0, false
	}
	st := e.tableStats(tab)
	h := st.Histogram(attr)
	if op == tmql.OpEq {
		if h != nil {
			if f := h.EstimateEq(lit.V); f >= 0 {
				return clampSelectivity(f, st.Card), true
			}
		}
		return st.Selectivity(attr), true
	}
	if h == nil {
		return 0, false
	}
	lt := h.EstimateLess(lit.V)
	if lt < 0 {
		return 0, false
	}
	eq := math.Max(0, h.EstimateEq(lit.V))
	var f float64
	switch op {
	case tmql.OpLt:
		f = lt
	case tmql.OpLe:
		f = lt + eq
	case tmql.OpGt:
		f = 1 - lt - eq
	case tmql.OpGe:
		f = 1 - lt
	default:
		return 0, false
	}
	return clampSelectivity(f, st.Card), true
}

// clampSelectivity keeps estimates inside (0, 1]: a zero estimate would zero
// out entire plan costs and turn the candidate comparison into degenerate
// ties, so the floor is half a row.
func clampSelectivity(f float64, card int) float64 {
	lo := 0.0
	if card > 0 {
		lo = 0.5 / float64(card)
	}
	if f < lo {
		f = lo
	}
	if f > 1 {
		f = 1
	}
	return f
}

// flipCompare mirrors a comparison operator for swapped operands.
func flipCompare(op tmql.Op) tmql.Op {
	switch op {
	case tmql.OpLt:
		return tmql.OpGt
	case tmql.OpLe:
		return tmql.OpGe
	case tmql.OpGt:
		return tmql.OpLt
	case tmql.OpGe:
		return tmql.OpLe
	}
	return op
}

// evalCost estimates naive (tuple-at-a-time) evaluation of a TM expression:
// an SFW block costs the product of its FROM cardinalities times the
// per-tuple work of its predicate and result — which makes correlated
// subqueries multiply out to the quadratic blowup the paper's flattening
// avoids, so the auto planner only picks naive evaluation when nothing
// better translates.
func (e *Estimator) evalCost(x tmql.Expr) Cost {
	if x == nil {
		return Cost{Rows: 1, Work: 0}
	}
	switch n := x.(type) {
	case *tmql.Lit, *tmql.Var:
		return Cost{Rows: 1, Work: 1}

	case *tmql.TableRef:
		card := float64(e.tableStats(n.Name).Card)
		return Cost{Rows: card, Work: card}

	case *tmql.FieldSel:
		c := e.evalCost(n.X)
		return Cost{Rows: 1, Work: c.Work + 1}

	case *tmql.TupleCons:
		work := 1.0
		for _, f := range n.Fields {
			work += e.evalCost(f.E).Work
		}
		return Cost{Rows: 1, Work: work}

	case *tmql.SetCons:
		work := 1.0
		for _, el := range n.Elems {
			work += e.evalCost(el).Work
		}
		return Cost{Rows: math.Max(1, float64(len(n.Elems))), Work: work}

	case *tmql.ListCons:
		work := 1.0
		for _, el := range n.Elems {
			work += e.evalCost(el).Work
		}
		return Cost{Rows: math.Max(1, float64(len(n.Elems))), Work: work}

	case *tmql.Binary:
		l, r := e.evalCost(n.L), e.evalCost(n.R)
		return Cost{Rows: 1, Work: l.Work + r.Work + 1}

	case *tmql.Unary:
		c := e.evalCost(n.X)
		return Cost{Rows: 1, Work: c.Work + 1}

	case *tmql.Agg:
		c := e.evalCost(n.X)
		return Cost{Rows: 1, Work: c.Work + c.Rows}

	case *tmql.Quant:
		over := e.evalCost(n.Over)
		pred := e.evalCost(n.Pred)
		return Cost{Rows: 1, Work: over.Work + over.Rows*pred.Work}

	case *tmql.SFW:
		loops := 1.0
		work := 0.0
		for _, f := range n.Froms {
			c := e.evalCost(f.Src)
			work += c.Work
			loops *= math.Max(1, c.Rows)
		}
		perTuple := 1.0 + e.evalCost(n.Where).Work + e.evalCost(n.Result).Work
		rows := loops
		if n.Where != nil {
			rows *= defaultSelectivity
		}
		return Cost{Rows: math.Max(1, rows), Work: work + loops*perTuple}

	case *tmql.Let:
		d, b := e.evalCost(n.Def), e.evalCost(n.Body)
		return Cost{Rows: b.Rows, Work: d.Work + b.Work}

	case *tmql.Unnest:
		c := e.evalCost(n.X)
		return Cost{Rows: c.Rows * 3, Work: c.Work + c.Rows*3}
	}
	return Cost{Rows: 1, Work: 1}
}
