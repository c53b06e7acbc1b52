package core

import (
	"fmt"

	"tmdb/internal/algebra"
	"tmdb/internal/schema"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Strategy selects how nested queries are processed.
type Strategy uint8

// Strategies. StrategyAuto (the zero value, so an unset engine.Options
// selects it) defers the choice to the cost-based physical planner, which
// enumerates the correct strategies × join implementations and picks the
// cheapest estimate. StrategyNestJoin is the paper's: classify predicates
// between blocks; flat semijoin/antijoin where Theorem 1 permits, nest join
// otherwise; bottom-up over linear nesting (§8). StrategyNaive is nested-loop
// processing (the correctness oracle). StrategyKim and StrategyOuterJoin are
// the relational baselines of §2. The auto planner never considers
// StrategyKim: it loses dangling tuples (the COUNT bug), so it exists only
// for explicit experiments.
const (
	StrategyAuto Strategy = iota
	StrategyNaive
	StrategyNestJoin
	StrategyKim
	StrategyOuterJoin
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyNaive:
		return "naive"
	case StrategyNestJoin:
		return "nestjoin"
	case StrategyKim:
		return "kim"
	case StrategyOuterJoin:
		return "outerjoin"
	}
	return "strategy?"
}

// ParseStrategy parses a strategy name as printed by String.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "auto":
		return StrategyAuto, nil
	case "naive":
		return StrategyNaive, nil
	case "nestjoin":
		return StrategyNestJoin, nil
	case "kim":
		return StrategyKim, nil
	case "outerjoin":
		return StrategyOuterJoin, nil
	}
	return 0, fmt.Errorf("core: unknown strategy %q", name)
}

// CandidateStrategies returns the strategies the cost-based planner may
// choose among. Kim's transformation is excluded: it is not semantics
// preserving on dangling tuples.
func CandidateStrategies() []Strategy {
	return []Strategy{StrategyNestJoin, StrategyOuterJoin, StrategyNaive}
}

// Translator turns bound TM expressions into algebra plans.
type Translator struct {
	b     *algebra.Builder
	cat   *schema.Catalog
	fresh int
	graph *algebra.JoinGraph
}

// NewTranslator returns a translator over the catalog.
func NewTranslator(cat *schema.Catalog) *Translator {
	return &Translator{b: algebra.NewBuilder(cat), cat: cat}
}

// Builder exposes the underlying plan builder (used by baselines and tests).
func (t *Translator) Builder() *algebra.Builder { return t.b }

// JoinGraph returns the join graph of the last translation when it was a
// flat join block (a multi-FROM block or a collapsed UNNEST), else nil. The
// planner's join-order search reorders it.
func (t *Translator) JoinGraph() *algebra.JoinGraph { return t.graph }

func (t *Translator) freshName(prefix string) string {
	t.fresh++
	return fmt.Sprintf("%s_%d", prefix, t.fresh)
}

// Translate compiles a bound, set-typed TM expression to an algebra plan
// under the given strategy. Expressions the strategy cannot flatten fall back
// to naive evaluation (an EvalNode leaf) — the paper's position that queries
// "may always be handled by means of nested-loop processing".
func (t *Translator) Translate(q tmql.Expr, s Strategy) (algebra.Plan, error) {
	t.graph = nil
	switch s {
	case StrategyAuto:
		return nil, fmt.Errorf("core: StrategyAuto must be resolved by the cost-based planner before translation")
	case StrategyNaive:
		return t.b.EvalSet(q)
	case StrategyNestJoin:
		return t.translateNestJoin(q)
	case StrategyKim:
		return t.translateKim(q)
	case StrategyOuterJoin:
		return t.translateOuterJoin(q)
	}
	return nil, fmt.Errorf("core: unknown strategy %d", s)
}

// --- The paper's strategy ---

func (t *Translator) translateNestJoin(q tmql.Expr) (algebra.Plan, error) {
	// §5 special case: UNNEST of a directly nested SELECT collapses to a
	// flat join.
	if u, ok := q.(*tmql.Unnest); ok {
		if p, ok, err := t.tryUnnestCollapse(u); err != nil {
			return nil, err
		} else if ok {
			return p, nil
		}
	}
	if sfw, ok := q.(*tmql.SFW); ok {
		if p, ok, err := t.trySFW(sfw); err != nil {
			return nil, err
		} else if ok {
			return p, nil
		}
	}
	// Not a flattenable shape: nested-loop processing.
	return t.b.EvalSet(q)
}

// trySFW translates a SELECT-FROM-WHERE block whose FROM sources are stored
// extensions. It reports ok=false when the shape is outside the flattenable
// class (the caller then falls back to naive evaluation).
func (t *Translator) trySFW(sfw *tmql.SFW) (algebra.Plan, bool, error) {
	if len(sfw.Froms) == 1 {
		if _, ok := sfw.Froms[0].Src.(*tmql.TableRef); ok {
			p, err := t.translateBlockQuery(sfw)
			if err != nil {
				return nil, false, err
			}
			return p, true, nil
		}
		return nil, false, nil
	}
	// Multi-item FROM: a flat join query (the paper's target form), handled
	// when every source is a stored extension; translateFlatJoin refuses a
	// predicate with a correlated subquery over an extension.
	for _, f := range sfw.Froms {
		if _, ok := f.Src.(*tmql.TableRef); !ok {
			return nil, false, nil
		}
	}
	p, err := t.translateFlatJoin(sfw)
	if err != nil {
		return nil, false, err
	}
	return p, true, nil
}

// translateBlockQuery handles the paper's general single-variable block
//
//	SELECT F(x) FROM X x WHERE P₁ ∧ … ∧ Pₙ
//
// where conjuncts may contain correlated subqueries over stored extensions
// (WHERE-clause nesting, §4) and F may contain them too (SELECT-clause
// nesting, §5). Deeper linear nesting inside the subqueries is translated
// bottom-up as in §8.
func (t *Translator) translateBlockQuery(sfw *tmql.SFW) (algebra.Plan, error) {
	x := sfw.Froms[0].Var
	table := sfw.Froms[0].Src.(*tmql.TableRef)
	plan, err := t.b.Scan(table.Name)
	if err != nil {
		return nil, err
	}
	baseLabels := topLabels(plan)

	where := InlineLets(sfw.Where)
	p, err := t.applyWhere(plan, x, where, baseLabels)
	if err != nil {
		return nil, err
	}

	// SELECT clause: unnest correlated subqueries over extensions into nest
	// joins (§5 — "nesting in the SELECT clause always requires grouping"),
	// then map the (rewritten) result expression.
	result := InlineLets(sfw.Result)
	for {
		sub := findExtensionSubquery(result, x)
		if sub == nil {
			break
		}
		blk, err := t.innerBlock(sub, x)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			// Subquery over an extension but with an unsupported shape:
			// leave it to the evaluator inside the Map below.
			break
		}
		label := t.freshName("nj")
		p, err = t.b.NestJoin(p, blk.plan, x, blk.v, blk.joinPred(), blk.result, label)
		if err != nil {
			return nil, err
		}
		result = ReplaceNode(result, sub, fieldOf(x, label))
	}

	m, err := t.b.Map(p, x, result)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// applyWhere folds the WHERE conjuncts into the plan: plain conjuncts become
// selections; conjuncts containing correlated subqueries over stored
// extensions become semijoins, antijoins, or nest-join + selection according
// to the classification (§7). The plan's element type is restored (nest-join
// labels projected away) after every conjunct, so conjuncts compose — this is
// also what supports multiple subqueries per WHERE clause (paper future
// work).
func (t *Translator) applyWhere(p algebra.Plan, x string, where tmql.Expr, baseLabels []string) (algebra.Plan, error) {
	for _, conjunct := range splitConjuncts(where) {
		sub := findExtensionSubquery(conjunct, x)
		if sub == nil {
			var err error
			p, err = t.b.Select(p, x, conjunct)
			if err != nil {
				return nil, err
			}
			continue
		}
		blk, err := t.innerBlock(sub, x)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			// Unsupported inner shape: evaluate the conjunct naively.
			p, err = t.b.Select(p, x, conjunct)
			if err != nil {
				return nil, err
			}
			continue
		}

		// Name the subquery z and classify P(x, z) — but only when the
		// conjunct contains no other extension subquery (classification
		// covers a single z).
		z := t.freshName("z")
		pz := ReplaceNode(conjunct, sub, &tmql.Var{Name: z})
		cls := Classification{Class: ClassGrouping}
		if findExtensionSubquery(pz, x) == nil {
			cls = Classify(pz, z, func() string { return t.freshName("v") })
		}

		switch cls.Class {
		case ClassExists, ClassNotExists:
			// Flat form: semijoin or antijoin on Q(x,y) ∧ P′(x, G(x,y)).
			inner := SubstVar(cls.Inner, cls.V, blk.result)
			pred := conjoin(append(blk.join, inner))
			kind := algebra.JoinSemi
			if cls.Class == ClassNotExists {
				kind = algebra.JoinAnti
			}
			p, err = t.b.Join(kind, p, blk.plan, x, blk.v, pred)
			if err != nil {
				return nil, err
			}
		default:
			// Grouping: nest join, then select on the grouped attribute,
			// then project the label away to restore the element type.
			label := t.freshName("nj")
			p, err = t.b.NestJoin(p, blk.plan, x, blk.v, blk.joinPred(), blk.result, label)
			if err != nil {
				return nil, err
			}
			selPred := ReplaceNode(conjunct, sub, fieldOf(x, label))
			// If the conjunct held further subqueries they were substituted
			// into selPred untouched; recurse on them first.
			if findExtensionSubquery(selPred, x) != nil {
				p, err = t.applyWhere(p, x, selPred, append(baseLabels, label))
				if err != nil {
					return nil, err
				}
			} else {
				p, err = t.b.Select(p, x, selPred)
				if err != nil {
					return nil, err
				}
			}
			p, err = t.b.Project(p, x, currentLabels(p, baseLabels)...)
			if err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// innerBlockInfo describes a translated inner query block
//
//	SELECT G(x,y) FROM Y y WHERE Q(x,y) ∧ local(y)
//
// after bottom-up processing: plan computes the (locally filtered and
// unnested) operand; join holds the conjuncts referencing the outer
// variable; result is G.
type innerBlockInfo struct {
	plan   algebra.Plan
	v      string
	join   []tmql.Expr
	result tmql.Expr
}

func (b *innerBlockInfo) joinPred() tmql.Expr {
	if p := conjoin(b.join); p != nil {
		return p
	}
	return trueExpr()
}

// innerBlock translates the inner block of a nested query bottom-up (§8):
// local conjuncts (including deeper subqueries) fold into the plan; neighbor
// predicates referencing outerVar are returned for the enclosing join. A nil
// result (no error) means the block's shape is unsupported and the caller
// must fall back.
func (t *Translator) innerBlock(sub *tmql.SFW, outerVar string) (*innerBlockInfo, error) {
	if len(sub.Froms) != 1 {
		return nil, nil
	}
	table, ok := sub.Froms[0].Src.(*tmql.TableRef)
	if !ok {
		return nil, nil
	}
	y := sub.Froms[0].Var
	if y == outerVar {
		return nil, nil // shadowing: keep naive semantics
	}
	plan, err := t.b.Scan(table.Name)
	if err != nil {
		return nil, err
	}
	baseLabels := topLabels(plan)

	var join []tmql.Expr
	var local tmql.Expr
	for _, c := range splitConjuncts(InlineLets(sub.Where)) {
		if mentionsVar(c, outerVar) {
			// Neighbor predicate. It must not itself contain an extension
			// subquery (non-linear correlation, out of scope).
			if findExtensionSubquery(c, y) != nil || findExtensionSubquery(c, outerVar) != nil {
				return nil, nil
			}
			join = append(join, c)
			continue
		}
		local = conjoinPair(local, c)
	}
	if local != nil {
		plan2, err := t.applyWhere(plan, y, local, baseLabels)
		if err != nil {
			return nil, err
		}
		// applyWhere may have widened and re-projected; types line up by
		// construction.
		return &innerBlockInfo{plan: plan2, v: y, join: join, result: InlineLets(sub.Result)}, nil
	}
	return &innerBlockInfo{plan: plan, v: y, join: join, result: InlineLets(sub.Result)}, nil
}

// tryUnnestCollapse recognizes §5's special case
//
//	UNNEST(SELECT (SELECT G(x,y) FROM Y y WHERE Q(x,y)) FROM X x [WHERE P(x)])
//
// and produces the equivalent flat join query: the two-relation join graph
// whose conjuncts are P's and Q's and whose result is G.
func (t *Translator) tryUnnestCollapse(u *tmql.Unnest) (algebra.Plan, bool, error) {
	outer, ok := u.X.(*tmql.SFW)
	if !ok || len(outer.Froms) != 1 {
		return nil, false, nil
	}
	outerTable, ok := outer.Froms[0].Src.(*tmql.TableRef)
	if !ok {
		return nil, false, nil
	}
	inner, ok := InlineLets(outer.Result).(*tmql.SFW)
	if !ok || len(inner.Froms) != 1 {
		return nil, false, nil
	}
	innerTable, ok := inner.Froms[0].Src.(*tmql.TableRef)
	if !ok {
		return nil, false, nil
	}
	x, y := outer.Froms[0].Var, inner.Froms[0].Var
	if x == y {
		return nil, false, nil
	}
	if findExtensionSubquery(inner.Where, y) != nil || findExtensionSubquery(inner.Result, y) != nil {
		return nil, false, nil
	}
	outerWhere := InlineLets(outer.Where)
	if findExtensionSubquery(outerWhere, x) != nil {
		return nil, false, nil
	}
	rels := []algebra.JoinRel{{Var: x, Table: outerTable.Name}, {Var: y, Table: innerTable.Name}}
	conjuncts := append(splitConjuncts(outerWhere), splitConjuncts(InlineLets(inner.Where))...)
	p, err := t.buildJoinGraph(algebra.NewJoinGraph(rels, conjuncts, InlineLets(inner.Result)))
	return p, err == nil, err
}

// translateFlatJoin compiles SELECT F FROM X₁ v₁, …, Xₙ vₙ WHERE P as the
// block's join graph folded in FROM order.
func (t *Translator) translateFlatJoin(sfw *tmql.SFW) (algebra.Plan, error) {
	conjuncts := splitConjuncts(InlineLets(sfw.Where))
	for _, c := range conjuncts {
		for _, f := range sfw.Froms {
			if findExtensionSubquery(c, f.Var) != nil {
				return nil, fmt.Errorf("core: correlated subqueries in multi-source FROM are not flattenable")
			}
		}
	}
	rels := make([]algebra.JoinRel, len(sfw.Froms))
	seen := map[string]bool{}
	for i, f := range sfw.Froms {
		if seen[f.Var] {
			return nil, fmt.Errorf("core: duplicate FROM variable %s", f.Var)
		}
		seen[f.Var] = true
		rels[i] = algebra.JoinRel{Var: f.Var, Table: f.Src.(*tmql.TableRef).Name}
	}
	return t.buildJoinGraph(algebra.NewJoinGraph(rels, conjuncts, InlineLets(sfw.Result)))
}

// buildJoinGraph builds the FROM-order plan of a flat join block and keeps
// its graph for the join-order search.
func (t *Translator) buildJoinGraph(g *algebra.JoinGraph) (algebra.Plan, error) {
	p, err := g.Build(t.b)
	if err == nil {
		t.graph = g
	}
	return p, err
}

// --- helpers ---

// findExtensionSubquery returns the first SFW node inside e (not e itself
// unless it qualifies) whose single FROM source is a stored extension and
// which references outerVar free — a correlated subquery eligible for
// unnesting. Subqueries over set-valued attributes (FROM d.emps e) are never
// returned: the paper keeps those nested (§3.2). Uncorrelated extension
// subqueries are constants and are also left in place.
func findExtensionSubquery(e tmql.Expr, outerVar string) *tmql.SFW {
	var found *tmql.SFW
	tmql.Walk(e, func(n tmql.Expr) bool {
		if found != nil {
			return false
		}
		sfw, ok := n.(*tmql.SFW)
		if !ok {
			return true
		}
		if len(sfw.Froms) == 1 {
			if _, isTable := sfw.Froms[0].Src.(*tmql.TableRef); isTable {
				if tmql.FreeVars(sfw)[outerVar] {
					found = sfw
					return false
				}
			}
		}
		return true
	})
	return found
}

// splitConjuncts flattens an AND tree (nil yields nil).
func splitConjuncts(e tmql.Expr) []tmql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*tmql.Binary); ok && b.Op == tmql.OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []tmql.Expr{e}
}

func conjoin(parts []tmql.Expr) tmql.Expr {
	var out tmql.Expr
	for _, p := range parts {
		out = conjoinPair(out, p)
	}
	return out
}

func conjoinPair(a, b tmql.Expr) tmql.Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return &tmql.Binary{Op: tmql.OpAnd, L: a, R: b}
	}
}

func trueExpr() tmql.Expr {
	return &tmql.Lit{V: value.True}
}

// topLabels returns the top-level attribute labels of a plan's tuple-typed
// element.
func topLabels(p algebra.Plan) []string {
	et := p.Elem()
	out := make([]string, 0, len(et.Fields))
	for _, f := range et.Fields {
		out = append(out, f.Label)
	}
	return out
}

// currentLabels returns base labels that still exist on p (projection target
// after nest joins added temporary labels).
func currentLabels(p algebra.Plan, base []string) []string {
	et := p.Elem()
	out := make([]string, 0, len(base))
	for _, l := range base {
		if _, ok := et.Field(l); ok {
			out = append(out, l)
		}
	}
	return out
}

// scanPlan returns a table scan typed as the Plan interface so callers can
// reassign the variable to wrapping operators.
func (t *Translator) scanPlan(name string) (algebra.Plan, error) {
	return t.b.Scan(name)
}
