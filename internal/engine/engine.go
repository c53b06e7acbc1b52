// Package engine wires the full pipeline: parse → bind → translate
// (strategy) → optimize → execute. Every query takes one path, the unified
// cost-based optimizer: it translates the query under the strategy
// Options.Strategy pins, or under every correct strategy when none is pinned
// (the zero value, core.StrategyAuto), expands each translation into its
// logical alternatives (the plan as translated, its §6 rewrite, and reordered
// join trees for multi-FROM blocks), costs every alternative × join-family ×
// access-path combination the options leave open against the statistics
// catalog (exact for tiny tables, histogram/sketch estimates above the
// threshold), and executes the cheapest — the path Explain renders together
// with the full candidate table. Options.PinAlt pins one logical alternative.
// Planning decisions are memoized in a bounded per-engine LRU plan cache
// keyed on the query's shape — the bound query with each constant compared
// against a field path replaced by a typed parameter slot — the options and
// the statistics generations they were costed against, so repeated queries,
// and queries differing only in such constants, skip translation,
// enumeration and resolution: each compiles the cached tree with its own
// constants. It is the implementation behind the public tmdb package.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"tmdb/internal/algebra"
	"tmdb/internal/core"
	"tmdb/internal/exec"
	"tmdb/internal/planner"
	"tmdb/internal/schema"
	"tmdb/internal/stats"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Engine executes TM queries against a catalog and database.
type Engine struct {
	cat *schema.Catalog
	db  *storage.DB
	// statsCat caches per-table statistics across queries; a table's figures
	// are recollected (lazily, on next use) once it has drifted from them by
	// a tenth of its cardinality, never because another table changed.
	statsCat *stats.Catalog
	// cache memoizes (query shape, options, statistics generations) →
	// physical planning decision.
	cache *planCache
}

// New returns an engine over the given schema and data.
func New(cat *schema.Catalog, db *storage.DB) *Engine {
	return &Engine{cat: cat, db: db, statsCat: stats.New(db), cache: newPlanCache()}
}

// Catalog returns the engine's schema catalog.
func (e *Engine) Catalog() *schema.Catalog { return e.cat }

// DB returns the engine's database.
func (e *Engine) DB() *storage.DB { return e.db }

// Stats returns the engine's statistics catalog (lazy: tables are scanned
// on first use by the cost model; the catalog itself is safe for concurrent
// queries).
func (e *Engine) Stats() *stats.Catalog { return e.statsCat }

// Analyze brings every table's statistics up to date exactly (the ANALYZE
// entry point) and returns the engine's catalog. Between Analyze calls
// statistics are allowed a bounded drift; here any table that has mutated at
// all since collection is rescanned, and untouched tables are not. The plan
// cache is left alone: cached plans carry the statistics generations they
// were costed against, so plans over a refreshed table replan on next use.
func (e *Engine) Analyze() *stats.Catalog {
	for _, name := range e.db.Names() {
		e.statsCat.Refresh(name)
	}
	return e.statsCat
}

// PlanCacheStats reports the plan cache's entry/capacity and
// hit/miss/eviction counts.
func (e *Engine) PlanCacheStats() CacheStats { return e.cache.stats() }

// SetPlanCacheCapacity bounds the plan cache to n entries with LRU eviction
// (n <= 0 restores DefaultPlanCacheCapacity). Shrinking below the current
// size evicts immediately.
func (e *Engine) SetPlanCacheCapacity(n int) { e.cache.setCapacity(n) }

// ClearPlanCache drops every memoized planning decision.
func (e *Engine) ClearPlanCache() { e.cache.clear() }

// Options configure one query execution.
type Options struct {
	// Strategy selects the unnesting strategy. The zero value
	// (core.StrategyAuto) lets the cost-based planner choose among the
	// correct strategies (nest join, outerjoin+ν*, naive); Kim's
	// transformation is never auto-selected because it loses dangling
	// tuples. A pinned strategy only narrows the translations to its own:
	// the logical alternative, join family and access path are still chosen
	// by cost unless pinned too.
	Strategy core.Strategy
	// Joins selects the physical join family. The zero value
	// (planner.ImplAuto) lets the cost-based planner weigh the families.
	Joins planner.JoinImpl
	// PinAlt pins one logical alternative by label: planner.AltBase,
	// planner.AltRewrite (the §6 rewrite fixpoint — selection pushdown
	// through nest joins and projections, dead nest-join elimination, select
	// fusion — or the translation itself where no rule fires), or a
	// join-order label as shown in EXPLAIN's candidate table (e.g.
	// "order:((z y) x)"). Empty means free choice. Pinning a label the
	// translations do not generate is an error; the conformance harness uses
	// this to execute every alternative and assert identical results.
	PinAlt string
	// Access selects the access path for leaf selections. The zero value
	// (planner.AccessAuto) lets the cost-based planner weigh index scans
	// against full scans wherever a selection's equality conjuncts cover a
	// live index prefix; planner.AccessScan pins full scans;
	// planner.AccessIndex pins index scans with per-selection scan fallback.
	Access planner.AccessPath
	// Limits are the query's resource budgets (wall-clock timeout, max
	// result rows, max build bytes). The zero value is unlimited. Limits
	// never affect planning — only execution — so they are excluded from the
	// plan-cache key and identical queries share cached plans across
	// different budgets.
	Limits Limits
}

// pin translates the physical options into the planner's pin.
func (o Options) pin() planner.PhysicalSpec {
	return planner.PhysicalSpec{Joins: o.Joins, Access: o.Access}
}

// Result is the outcome of a query execution.
type Result struct {
	// Value is the query result (a set for SFW queries).
	Value value.Value
	// Plan is the logical plan that was executed: the plan cached for the
	// query's shape, whose slotted literals (tmql.MarkSlots) hold the values
	// the shape was planned with. The execution read the query's own values
	// in their place; Expr holds those, and EXPLAIN prints them.
	Plan algebra.Plan
	// Expr is the bound query expression.
	Expr tmql.Expr
	// Strategy is the unnesting strategy actually used (resolved from Auto).
	Strategy core.Strategy
	// Alt is the logical alternative executed: planner.AltBase for the plain
	// translation, planner.AltRewrite when the §6 rewrite won (or was
	// pinned), an "order:…" label for a reordered join tree.
	Alt string
	// Joins is the join family actually used (resolved from Auto by cost
	// unless pinned).
	Joins planner.JoinImpl
	// Access is the access path leaf selections read through
	// (planner.AccessIndex when index scans served them).
	Access planner.AccessPath
	// Parallelism is always 1: execution is serial. It remains only because
	// the benchmark harness (bench/trace.go) still reads it; the next change
	// to the benchmark removes that read, and then this field.
	Parallelism int
	// Cost is the plan's estimated cost.
	Cost planner.Cost
	// Auto reports whether the cost-based planner chose the strategy (no
	// strategy was pinned).
	Auto bool
	// CacheHit reports whether planning was served from the plan cache: by
	// this query's shape, possibly planned with other values for its slotted
	// constants (Plan, Cost and the strategy, join and access choices are
	// then those of the values that planned the shape, and the execution
	// read this query's values).
	CacheHit bool
	// Duration is the wall-clock execution time (translation + execution,
	// excluding parse/bind).
	Duration time.Duration
	// EvalSteps counts elementary expression-evaluation steps performed by
	// operators and naive evaluation — a machine-independent work measure of
	// evaluator work performed. Expressions the executor compiles (join keys,
	// residuals, projections and nest-join functions in the compiled subset)
	// run without the evaluator and count no steps.
	EvalSteps int64
	// Sched is always zero: there is no morsel scheduler. It remains only
	// because the benchmark harness (bench/trace.go) still reads it; the next
	// change to the benchmark removes that read, and then this field.
	Sched struct{ Dispatched, Stolen, BusyNanos int64 }
}

// planned is a physical planning decision: what the plan cache stores. tree
// is the chosen plan resolved under the chosen spec, which every execution
// of the shape compiles into fresh iterators, with its own slot values as
// arguments, and nothing writes. Entries are immutable after construction.
type planned struct {
	tree       *planner.Tree
	strategy   core.Strategy
	alt        string
	cost       planner.Cost
	auto       bool
	candidates []planner.Candidate
}

// query is one bound top-level query, computed once per text: the bound
// expression, the tables it reads (sorted), its shape (tmql.Shape, the query
// part of the plan-cache key) and the values of its slotted constants in
// slot order, the arguments its executions compile the cached tree with.
// Query, Explain and their siblings bind one per call; a Prepared statement
// holds one for its lifetime.
type query struct {
	expr   tmql.Expr
	tables []string
	shape  string
	vals   []value.Value
}

// bind parses and binds src and gives its constants parameter slots.
func (e *Engine) bind(src string) (*query, error) {
	expr, err := tmql.Parse(src)
	if err != nil {
		return nil, err
	}
	bound, err := tmql.NewBinder(e.cat).Bind(expr)
	if err != nil {
		return nil, err
	}
	return newQuery(bound), nil
}

// newQuery gives a bound query's constants parameter slots and computes its
// shape.
func newQuery(bound tmql.Expr) *query {
	vals := tmql.MarkSlots(bound)
	return &query{expr: bound, tables: tmql.Tables(bound), shape: tmql.Shape(bound), vals: vals}
}

// Query parses, binds, translates, and executes a TM query string. It is
// QueryContext under context.Background() — uncancellable, ungoverned
// unless Options.Limits set budgets.
func (e *Engine) Query(src string, opts Options) (*Result, error) {
	return e.QueryContext(context.Background(), src, opts)
}

// QueryContext is Query observing ctx: cancellation and deadline reach every
// operator's Next()/build loop, surfacing as exec.ErrCanceled /
// exec.ErrDeadlineExceeded wrapped in an *AbortError carrying partial-work
// accounting.
func (e *Engine) QueryContext(ctx context.Context, src string, opts Options) (*Result, error) {
	q, err := e.bind(src)
	if err != nil {
		return nil, err
	}
	return e.execBound(ctx, q, opts)
}

// execBound plans and executes a bound query — the shared tail of
// QueryContext, Prepared.QueryContext and Delete's victim query. The bound
// tree is never mutated, so prepared statements may execute it from many
// goroutines.
// Governance wraps the whole execution: Options.Limits.Timeout tightens the
// context's deadline, a Governor (created only when the context is
// cancellable or budgets are set — otherwise nil, the free path) is polled by
// every operator, and a recovered panic becomes a typed *PanicError rather
// than taking the process down.
func (e *Engine) execBound(ctx context.Context, q *query, opts Options) (res *Result, err error) {
	start := time.Now()
	if err := e.checkTablesLive(q.tables); err != nil {
		return nil, err
	}
	pl, hit, err := e.plan(q, opts)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Limits.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Limits.Timeout)
		defer cancel()
	}
	gov := exec.NewGovernor(ctx, opts.Limits.exec())
	ectx := exec.NewCtxGoverned(e.db, gov)
	ectx.Ev.Args = q.vals
	defer recoverAbort(gov, &res, &err)
	pl, tree, rows, cerr := e.compile(ectx, q, opts, pl)
	if cerr != nil {
		if terr := e.checkTablesLive(q.tables); terr != nil {
			return nil, terr
		}
		return nil, cerr
	}
	v, err := exec.CollectBatchesGoverned(gov, tree, rows)
	if err != nil {
		// A table dropped between the liveness pre-check and execution fails
		// deep in the executor with an untyped unknown-table error; reclassify
		// it (governance aborts keep their own taxonomy).
		if !abortCause(err) {
			if terr := e.checkTablesLive(q.tables); terr != nil {
				return nil, terr
			}
		}
		return nil, wrapAbort(fmt.Errorf("engine: executing %s: %w", pl.tree.Plan().Describe(q.vals), err), gov)
	}
	return &Result{
		Value:       v,
		Plan:        pl.tree.Plan(),
		Expr:        q.expr,
		Strategy:    pl.strategy,
		Alt:         pl.alt,
		Joins:       pl.tree.Spec.Joins,
		Access:      pl.tree.Spec.Access,
		Parallelism: 1,
		Cost:        pl.cost,
		Auto:        pl.auto,
		CacheHit:    hit,
		Duration:    time.Since(start),
		EvalSteps:   ectx.Ev.Steps,
	}, nil
}

// compile compiles pl's tree over ectx. storage.Table.DropIndex unregisters
// an index without sweeping the plan cache, so a cached tree may name an
// index that is gone: the execution that finds so sweeps the cached plans
// over q's tables, as Engine.DropIndex does, and plans q again, so it alone
// pays and the executions after it hit the new decision. An index dropped
// again between that planning and its compile runs the plan resolved without
// indexes, so index churn never fails a query. It returns the decision the
// tree was compiled from.
func (e *Engine) compile(ectx *exec.Ctx, q *query, opts Options, pl *planned) (*planned, exec.BatchIterator, exec.Rows, error) {
	tree, rows, err := planner.Compile(ectx, pl.tree)
	if !errors.Is(err, planner.ErrIndexGone) {
		return pl, tree, rows, err
	}
	for _, t := range q.tables {
		e.cache.invalidateTable(t)
	}
	if pl, _, err = e.plan(q, opts); err != nil {
		return nil, nil, exec.AnyRows, err
	}
	if tree, rows, err = planner.Compile(ectx, pl.tree); errors.Is(err, planner.ErrIndexGone) {
		tree, rows, err = planner.Compile(ectx, planner.Unindexed(pl.tree))
	}
	return pl, tree, rows, err
}

// plan resolves Options into a planned decision, consulting the plan cache
// first. The cache key carries, per referenced table, the generation of the
// statistics the plan is costed against, so a cached decision is served until
// one of its tables has drifted far enough for the catalog to recollect it —
// then the key misses and the query replans against the new statistics. A
// write within the drift bound changes neither. That is safe because a
// planned decision holds no rows and no index: each execution reads the
// tables' current snapshots and fetches the live indexes its tree names,
// and every plan returns the same answer. The key's query part is the
// shape, so a hit may have been planned with other values for the slotted
// constants: its tree reads q's as arguments when it is compiled, so it
// serves q unchanged. The reported bool is true on a cache hit.
func (e *Engine) plan(q *query, opts Options) (*planned, bool, error) {
	buf := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(buf)
	*buf = appendCacheKey((*buf)[:0], q.shape, opts, q.tables, e.generation)
	if pl, ok := e.cache.get(*buf); ok {
		return pl, true, nil
	}
	pl, err := e.planMiss(q.expr, opts)
	if err != nil {
		return nil, false, err
	}
	e.cache.put(string(*buf), q.tables, pl)
	return pl, false, nil
}

// generation is the statistics generation of the named table.
func (e *Engine) generation(table string) uint64 { return e.statsCat.Table(table).Epoch }

// planMiss performs the full planning work: translate, settle the logical
// alternatives, and choose the cheapest alternative × join-family ×
// access-path combination the options leave open. Choose never picks an
// infeasible combination; when a pinned join family leaves none feasible,
// Query and Explain fail here alike, and nothing is cached.
func (e *Engine) planMiss(bound tmql.Expr, opts Options) (*planned, error) {
	est := planner.NewEstimatorStats(e.statsCat)
	alts, err := e.alternatives(bound, opts, est)
	if err != nil {
		return nil, err
	}
	best, all, err := est.Choose(alts, opts.pin())
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	strategy, _ := core.ParseStrategy(best.Strategy)
	return &planned{
		tree: best.Tree, strategy: strategy, alt: best.Alt,
		cost: best.Cost, auto: opts.Strategy == core.StrategyAuto, candidates: all,
	}, nil
}

// alternatives translates the query under the pinned strategy, or under every
// correct one when none is pinned, expands each translation into its
// alternatives (as translated, §6 rewrite, join orders costed by est) and
// restricts them to Options.PinAlt when set. Left to choose, a non-naive
// translation that is one bare Eval node unnested nothing: it is the naive
// plan under another name, so it is dropped and the naive candidate stands
// for it.
func (e *Engine) alternatives(bound tmql.Expr, opts Options, est *planner.Estimator) ([]planner.StrategyPlan, error) {
	strategies := core.CandidateStrategies()
	if opts.Strategy != core.StrategyAuto {
		strategies = []core.Strategy{opts.Strategy}
	}
	var sps []planner.StrategyPlan
	for _, s := range strategies {
		tr := core.NewTranslator(e.cat)
		p, err := tr.Translate(bound, s)
		if err != nil {
			return nil, err
		}
		if _, bare := p.(*algebra.EvalNode); bare && s != core.StrategyNaive && opts.Strategy == core.StrategyAuto {
			continue
		}
		sps = append(sps, planner.StrategyPlan{Strategy: s.String(), Plan: p, Graph: tr.JoinGraph()})
	}
	return planner.PinAlternatives(est.Alternatives(algebra.NewBuilder(e.cat), sps), opts.PinAlt)
}

// Explain parses, binds, and plans a query, returning the physical plan
// rendering — chosen strategy, join family and access path,
// per-operator estimated rows and cost, and every candidate considered —
// without executing it. Planning is served from the
// plan cache when possible, exactly as execution would be.
func (e *Engine) Explain(src string, opts Options) (string, error) {
	return e.ExplainContext(context.Background(), src, opts)
}

// ExplainContext is Explain observing ctx: planning is not interruptible
// mid-enumeration (it is fast and allocation-bound), but an
// already-expired context fails up front with the same taxonomy as
// execution, so clients can treat /explain uniformly with /query.
func (e *Engine) ExplainContext(ctx context.Context, src string, opts Options) (string, error) {
	if err := ctxErr(ctx); err != nil {
		return "", err
	}
	q, err := e.bind(src)
	if err != nil {
		return "", err
	}
	return e.explainBound(q, opts)
}

// ctxErr maps a context's state into the exec error taxonomy.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		if ctx.Err() == context.DeadlineExceeded {
			return exec.ErrDeadlineExceeded
		}
		return exec.ErrCanceled
	default:
		return nil
	}
}

// explainBound renders the physical plan for a bound query — the shared tail
// of Explain and Prepared.Explain. Infeasible pinned join families are
// rejected inside plan, identically to execution. The header's mode is
// "cost-based" when the planner chose the strategy and "fixed" when it was
// pinned.
func (e *Engine) explainBound(q *query, opts Options) (string, error) {
	if err := e.checkTablesLive(q.tables); err != nil {
		return "", err
	}
	pl, _, err := e.plan(q, opts)
	if err != nil {
		return "", err
	}
	est := planner.NewEstimatorStats(e.Stats())
	var b strings.Builder
	mode := "fixed"
	if pl.auto {
		mode = "cost-based"
	}
	fmt.Fprintf(&b, "strategy=%s alt=%s joins=%s access=%s (%s)\n",
		pl.strategy, pl.alt, pl.tree.Spec.Joins, pl.tree.Spec.Access, mode)
	if n := planner.NaiveLeaves(pl.tree.Plan()); n > 0 {
		fmt.Fprintf(&b, "naive leaves: %d\n", n)
	}
	b.WriteString(est.Explain(pl.tree, q.vals))
	if len(pl.candidates) > 1 {
		b.WriteString("candidates considered:\n")
		for _, c := range pl.candidates {
			fmt.Fprintf(&b, "  %s\n", c)
		}
	}
	return b.String(), nil
}

// PlanCandidates plans the query (through the plan cache, like Query and
// Explain) and returns every candidate the optimizer considered — the
// machine-readable form of EXPLAIN's candidate table. The conformance
// harness uses it to enumerate and pin each logical alternative.
func (e *Engine) PlanCandidates(src string, opts Options) ([]planner.Candidate, error) {
	q, err := e.bind(src)
	if err != nil {
		return nil, err
	}
	pl, _, err := e.plan(q, opts)
	if err != nil {
		return nil, err
	}
	return pl.candidates, nil
}
