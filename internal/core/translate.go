package core

import (
	"fmt"
	"slices"

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
	q     tmql.Expr
	taken map[string]bool // q's names, which fresh names avoid; built on first use
	graph *algebra.JoinGraph
}

// NewTranslator returns a translator over the catalog.
func NewTranslator(cat *schema.Catalog) *Translator {
	return &Translator{b: algebra.NewBuilder(cat), cat: cat}
}

// Builder exposes the underlying plan builder (used by baselines and tests).
func (t *Translator) Builder() *algebra.Builder { return t.b }

// JoinGraph returns the join graph of the last translation when it was a
// pure flat join block (several FROM items or a collapsed UNNEST, and no
// correlated subquery left to unnest), else nil. The planner's join-order
// search reorders it.
func (t *Translator) JoinGraph() *algebra.JoinGraph { return t.graph }

func (t *Translator) freshName(prefix string) string {
	if t.taken == nil {
		t.taken = tmql.Names(t.q)
	}
	for {
		t.fresh++
		if name := fmt.Sprintf("%s_%d", prefix, t.fresh); !t.taken[name] {
			return name
		}
	}
}

// Translate compiles a bound, set-typed TM expression to an algebra plan
// under the given strategy. Under the paper's strategy every
// SELECT-FROM-WHERE block — outer, inner, in FROM, or a collapsed UNNEST —
// goes through one block builder (buildBlock); a block it keeps nested, and
// any expression that is no block, is evaluated naively where it stands (an
// EvalNode leaf, or a subquery inside a selection or map) — the paper's
// position that queries "may always be handled by means of nested-loop
// processing".
func (t *Translator) Translate(q tmql.Expr, s Strategy) (algebra.Plan, error) {
	t.graph, t.q, t.taken = nil, q, nil
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
	switch q := q.(type) {
	case *tmql.SFW:
		return t.translateSFW(q, q.Froms, q.Where, q.Result)
	case *tmql.Unnest:
		// §5 special case: UNNEST of a directly nested SELECT is the flat
		// block over both FROM clauses,
		//
		//	UNNEST(SELECT (SELECT G FROM F₂ WHERE Q) FROM F₁ WHERE P)
		//	  = SELECT G FROM F₁, F₂ WHERE P ∧ Q.
		if outer, ok := q.X.(*tmql.SFW); ok {
			if inner, ok := InlineLets(outer.Result).(*tmql.SFW); ok {
				froms := append(append([]tmql.FromItem{}, outer.Froms...), inner.Froms...)
				return t.translateSFW(q, froms, conjoinPair(InlineLets(outer.Where), InlineLets(inner.Where)), inner.Result)
			}
		}
	}
	// Not a block: nested-loop processing.
	return t.b.EvalSet(q)
}

// translateSFW translates the block SELECT result FROM froms WHERE where,
// the query q, bottom-up as in §8: the block builder's rows, the remaining
// conjuncts through applyWhere (WHERE-clause nesting, §4), the SELECT
// clause's correlated subqueries as nest joins (§5 — "nesting in the SELECT
// clause always requires grouping"), then the result map. A block the
// builder keeps nested is evaluated naively. The join graph of a pure flat
// join block is kept for the join-order search.
func (t *Translator) translateSFW(q tmql.Expr, froms []tmql.FromItem, where, result tmql.Expr) (algebra.Plan, error) {
	result = InlineLets(result)
	blk, err := t.buildBlock(froms, splitConjuncts(InlineLets(where)), result)
	if _, ok := err.(refusal); ok {
		return t.b.EvalSet(q)
	} else if err != nil {
		return nil, err
	}
	p, err := t.applyWhere(blk.plan, blk.v, blk.rest, topLabels(blk.plan))
	if err != nil {
		return nil, err
	}
	graph := blk.graph
	if len(blk.rest) > 0 {
		graph = nil
	}
	result = blk.readdress(result)
	for {
		sub := findExtensionSubquery(result, blk.v)
		if sub == nil {
			break
		}
		inner, err := t.innerBlock(sub, blk.v)
		if err != nil {
			return nil, err
		}
		if inner == nil {
			break // kept nested: the evaluator runs it inside the Map below
		}
		label := t.freshName("nj")
		if p, err = t.b.NestJoin(p, inner.plan, blk.v, inner.v, inner.joinPred(), inner.result, label); err != nil {
			return nil, err
		}
		result = ReplaceNode(result, sub, fieldOf(blk.v, label))
		graph = nil
	}
	t.graph = graph
	return t.b.Map(p, blk.v, result)
}

// refusal names a block shape the builder keeps nested (§3.2); the block is
// then evaluated naively where it stands.
type refusal string

func (r refusal) Error() string { return "core: " + string(r) }

// block is a SELECT-FROM-WHERE block's FROM clause with its flat conjuncts
// applied: rows of one variable v. rest holds the conjuncts left to the
// caller, already over v; readdress moves any other expression over the
// FROM variables onto v.
type block struct {
	plan  algebra.Plan
	v     string
	graph *algebra.JoinGraph // nil for a single stored table
	rest  []tmql.Expr
}

func (k *block) readdress(e tmql.Expr) tmql.Expr {
	if k.graph == nil {
		return e
	}
	return k.graph.Readdress(e)
}

// buildBlock is the one block builder. A single stored table is its bare
// Scan, every conjunct left in rest. Otherwise every FROM item is a
// relation of the block's join graph — a stored table's Scan, or the
// translation of a closed FROM subquery — and the graph's rows apply every
// conjunct except those holding a correlated subquery over an extension,
// which stay in rest. Any other FROM item, such as a path x.a over an
// earlier FROM variable, keeps the block nested, as does a duplicate FROM
// variable. result and held (an enclosing block's correlation) are the
// caller's other expressions over the FROM variables; the graph's names
// avoid theirs.
func (t *Translator) buildBlock(froms []tmql.FromItem, conjuncts []tmql.Expr, result tmql.Expr, held ...tmql.Expr) (*block, error) {
	if tab, ok := froms[0].Src.(*tmql.TableRef); ok && len(froms) == 1 {
		p, err := t.b.Scan(tab.Name)
		return &block{plan: p, v: froms[0].Var, rest: conjuncts}, err
	}
	var rels []algebra.JoinRel
	var vars []string
	for _, f := range froms {
		if slices.Contains(vars, f.Var) {
			return nil, refusal("duplicate FROM variable " + f.Var)
		}
		var p algebra.Plan
		var err error
		switch src := f.Src.(type) {
		case *tmql.TableRef:
			p, err = t.b.Scan(src.Name)
		case *tmql.SFW:
			if len(tmql.FreeVars(src)) > 0 {
				return nil, refusal("FROM subquery " + f.Var + " has free variables")
			}
			graph := t.graph // a FROM subquery's own graph is not the block's
			p, err = t.translateNestJoin(src)
			t.graph = graph
		default:
			return nil, refusal("FROM item " + f.Var + " is neither a stored extension nor a subquery")
		}
		if err != nil {
			return nil, err
		}
		rels, vars = append(rels, algebra.JoinRel{Var: f.Var, Plan: p}), append(vars, f.Var)
	}
	var flat, rest []tmql.Expr
	for _, c := range conjuncts {
		if holdsSubquery(c, vars...) {
			rest = append(rest, c)
		} else {
			flat = append(flat, c)
		}
	}
	g := algebra.NewJoinGraph(rels, flat, result, append(rest, held...)...)
	p, err := g.Rows(t.b)
	if err != nil {
		return nil, err
	}
	for i, c := range rest {
		rest[i] = g.Readdress(c)
	}
	return &block{plan: p, v: g.Var(), graph: g, rest: rest}, nil
}

// applyWhere folds the WHERE conjuncts into the plan: plain conjuncts become
// selections; conjuncts containing correlated subqueries over stored
// extensions become semijoins, antijoins, or nest-join + selection according
// to the classification (§7). The plan's element type is restored (nest-join
// labels projected away) after every conjunct, so conjuncts compose — this is
// also what supports multiple subqueries per WHERE clause (paper future
// work).
func (t *Translator) applyWhere(p algebra.Plan, x string, conjuncts []tmql.Expr, baseLabels []string) (algebra.Plan, error) {
	for _, conjunct := range conjuncts {
		sub := findExtensionSubquery(conjunct, x)
		var blk *innerBlockInfo
		var err error
		if sub != nil {
			if blk, err = t.innerBlock(sub, x); err != nil {
				return nil, err
			}
		}
		if blk == nil {
			// No subquery to unnest, or one kept nested: a selection, the
			// evaluator running any subquery once per row.
			if p, err = t.b.Select(p, x, conjunct); err != nil {
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
			parts := blk.join
			if !slices.ContainsFunc(parts, func(c tmql.Expr) bool { return restates(c, inner) }) {
				parts = append(parts, inner)
			}
			pred := conjoin(parts)
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
				p, err = t.applyWhere(p, x, []tmql.Expr{selPred}, append(baseLabels, label))
			} else {
				p, err = t.b.Select(p, x, selPred)
			}
			if err != nil {
				return nil, err
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
// unnested) operand, iterated as v; join holds the conjuncts referencing the
// outer variable; result is G. join and result are over v.
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

// innerBlock translates the inner block of a nested query bottom-up (§8)
// through the block builder: local conjuncts (including deeper subqueries)
// fold into the plan; neighbor predicates referencing outerVar are returned
// for the enclosing join. A nil result (no error) means the block stays
// nested and the caller leaves it to the evaluator.
func (t *Translator) innerBlock(sub *tmql.SFW, outerVar string) (*innerBlockInfo, error) {
	vars := []string{outerVar}
	for _, f := range sub.Froms {
		vars = append(vars, f.Var)
	}
	var join, local []tmql.Expr
	for _, c := range splitConjuncts(InlineLets(sub.Where)) {
		switch {
		case !mentionsVar(c, outerVar):
			local = append(local, c)
		case holdsSubquery(c, vars...):
			return nil, nil // non-linear: a neighbor predicate holding a subquery
		default:
			join = append(join, c)
		}
	}
	result := InlineLets(sub.Result)
	blk, err := t.buildBlock(sub.Froms, local, result, join...)
	if _, ok := err.(refusal); ok {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	plan, err := t.applyWhere(blk.plan, blk.v, blk.rest, topLabels(blk.plan))
	if err != nil {
		return nil, err
	}
	for i, c := range join {
		join[i] = blk.readdress(c)
	}
	return &innerBlockInfo{plan: plan, v: blk.v, join: join, result: blk.readdress(result)}, nil
}

// --- helpers ---

// findExtensionSubquery returns the first SFW node inside e (not e itself
// unless it qualifies) that references outerVar free and whose FROM items
// are all stored extensions or closed subqueries, at least one reading a
// stored extension — a correlated subquery eligible for unnesting.
// Subqueries over set-valued attributes (FROM d.emps e) are never returned:
// the paper keeps those nested (§3.2). Uncorrelated extension subqueries are
// constants and are also left in place.
func findExtensionSubquery(e tmql.Expr, outerVar string) *tmql.SFW {
	var found *tmql.SFW
	tmql.Walk(e, func(n tmql.Expr) bool {
		if found != nil {
			return false
		}
		if sfw, ok := n.(*tmql.SFW); ok && overExtensions(sfw) && tmql.FreeVars(sfw)[outerVar] {
			found = sfw
			return false
		}
		return true
	})
	return found
}

// overExtensions reports whether every FROM item of sfw is a stored
// extension or a closed subquery, and at least one reads an extension.
func overExtensions(sfw *tmql.SFW) bool {
	reads := false
	for _, f := range sfw.Froms {
		switch src := f.Src.(type) {
		case *tmql.TableRef:
			reads = true
		case *tmql.SFW:
			if len(tmql.FreeVars(src)) > 0 {
				return false
			}
			reads = reads || len(tmql.Tables(src)) > 0
		default:
			return false
		}
	}
	return reads
}

// holdsSubquery reports whether e holds a subquery eligible for unnesting
// that is correlated to one of vars.
func holdsSubquery(e tmql.Expr, vars ...string) bool {
	return slices.ContainsFunc(vars, func(v string) bool { return findExtensionSubquery(e, v) != nil })
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

// restates reports whether conjunct c already says what e says: e itself,
// or an equality with its operands swapped. A membership test often restates
// its subquery's correlation (x.b IN SELECT y.d FROM Y y WHERE x.b = y.d),
// and the semijoin's predicate then holds it once.
func restates(c, e tmql.Expr) bool {
	if tmql.Format(c) == tmql.Format(e) {
		return true
	}
	ce, ok := c.(*tmql.Binary)
	ee, ok2 := e.(*tmql.Binary)
	return ok && ok2 && ce.Op == tmql.OpEq && ee.Op == tmql.OpEq &&
		tmql.Format(ce.L) == tmql.Format(ee.R) && tmql.Format(ce.R) == tmql.Format(ee.L)
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
