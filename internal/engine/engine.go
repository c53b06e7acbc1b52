// Package engine wires the full pipeline: parse → bind → translate
// (strategy) → optimize → execute. When no strategy is fixed in Options (the
// zero value, core.StrategyAuto), the engine runs the unified cost-based
// optimizer: it translates the query under every correct strategy, expands
// each translation into its logical alternatives (the plan as translated,
// its §6 rewrite, and reordered join trees for multi-FROM blocks), costs
// every alternative × join-family × parallelism-degree combination against
// the statistics catalog (exact for tiny tables, histogram/sketch estimates
// above the threshold), and executes the cheapest — the path Explain renders
// together with the full candidate table. Options.PinAlt pins one logical
// alternative.
// Planning decisions are memoized in a bounded per-engine LRU plan cache
// keyed on the query's shape — the bound query with each constant compared
// against a field path replaced by a typed parameter slot — the options and
// the statistics generations they were costed against, so repeated queries,
// and queries differing only in such constants, skip translation and
// enumeration. It is the implementation behind the public tmdb package.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
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
	// tuples.
	Strategy core.Strategy
	// Joins selects the physical join family (default: auto — enumerated by
	// cost under StrategyAuto, hash-when-an-equi-key-exists under a fixed
	// strategy).
	Joins planner.JoinImpl
	// Parallelism sizes the query's morsel scheduler: values >= 2 run the
	// hash join family partitioned across a worker pool of that size (hash
	// partitions and pool share the degree; idle workers steal morsels from
	// loaded ones), 1 forces serial execution. The zero value defers to the
	// planner: under StrategyAuto it resolves to runtime.GOMAXPROCS(0)
	// (sized down by statistics — see planner.PartitionDegree) and the cost
	// model decides per query whether a parallel variant actually wins;
	// under a fixed strategy the physical decision is pinned by the caller,
	// so zero stays serial and parallel execution is an explicit opt-in
	// (keeping fixed-strategy experiment numbers comparable across
	// releases). Results are byte-identical at every degree and any steal
	// schedule.
	Parallelism int
	// PinAlt pins one logical alternative by label: planner.AltBase,
	// planner.AltRewrite (the §6 rewrite fixpoint — selection pushdown
	// through nest joins and projections, dead nest-join elimination, select
	// fusion — or the translation itself where no rule fires), or, on the
	// cost-based path, a join-order label as shown in EXPLAIN's candidate
	// table (e.g. "order:((z y) x)"). Empty means free choice on the
	// cost-based path and the translation as produced under a fixed strategy.
	// Pinning a label the path does not generate is an error; the conformance
	// harness uses this to execute every alternative and assert identical
	// results.
	PinAlt string
	// Access selects the access path for leaf selections. The zero value
	// (planner.AccessAuto) lets the cost-based planner weigh index scans
	// against full scans wherever a selection's equality conjuncts cover a
	// live index prefix (fixed-strategy paths stay on scans, keeping
	// experiment numbers comparable); planner.AccessScan pins full scans;
	// planner.AccessIndex pins index scans with per-selection scan fallback.
	Access planner.AccessPath
	// Limits are the query's resource budgets (wall-clock timeout, max
	// result rows, max build bytes). The zero value is unlimited. Limits
	// never affect planning — only execution — so they are excluded from the
	// plan-cache key and identical queries share cached plans across
	// different budgets.
	Limits Limits
	// BatchSize controls vectorized (batch-at-a-time) execution. The zero
	// value defers to the planner: under StrategyAuto the cost model weighs a
	// vectorized variant (at exec.DefaultBatchSize) against row-at-a-time for
	// every candidate; under a fixed strategy zero stays row-at-a-time so
	// historical experiment numbers are unaffected. A positive value pins
	// vectorized execution at that many rows per batch (clamped to
	// exec.MaxBatchSize); a negative value pins row-at-a-time execution.
	// Results are identical either way — batching only trades dispatch
	// overhead.
	BatchSize int
	// NoSteal disables work stealing in the morsel scheduler, pinning every
	// morsel to its home worker — the partition-dedicated assignment the
	// scheduler replaced. Results are identical either way; the knob exists
	// as an ablation for benchmarks (B10 measures steal vs no-steal under
	// skew) and for diagnosing scheduling anomalies. Like Limits it never
	// affects planning, so it is excluded from the plan-cache key.
	NoSteal bool
}

// pin translates the physical options into the planner's pin. BatchSize is
// canonicalized for the plan-cache key: every negative value pins
// row-at-a-time (-1), positive values clamp to the effective size, zero
// defers to the planner.
func (o Options) pin() planner.PhysicalSpec {
	pin := planner.PhysicalSpec{Joins: o.Joins, Degree: o.Parallelism, Access: o.Access, Batch: o.BatchSize}
	switch {
	case pin.Batch < 0:
		pin.Batch = -1
	case pin.Batch > 0:
		pin.Batch = exec.NormalizeBatchSize(pin.Batch)
	}
	return pin
}

// Result is the outcome of a query execution.
type Result struct {
	// Value is the query result (a set for SFW queries).
	Value value.Value
	// Plan is the logical plan that was executed.
	Plan algebra.Plan
	// Expr is the bound query expression.
	Expr tmql.Expr
	// Strategy is the unnesting strategy actually used (resolved from Auto).
	Strategy core.Strategy
	// Alt is the logical alternative executed: planner.AltBase for the plain
	// translation, planner.AltRewrite when the §6 rewrite won (or was
	// pinned), an "order:…" label for a reordered join tree.
	Alt string
	// Joins is the join family actually used (resolved from Auto when the
	// cost-based planner chose).
	Joins planner.JoinImpl
	// Access is the access path leaf selections read through
	// (planner.AccessIndex when index scans served them).
	Access planner.AccessPath
	// Parallelism is the partitioned-execution degree the plan ran at
	// (1 = serial).
	Parallelism int
	// Batch is the vectorized batch size the plan ran at (0 = row-at-a-time).
	Batch int
	// Cost is the plan's estimated cost. Populated only on the cost-based
	// path (Auto), so fixed-strategy benchmark runs skip statistics work.
	Cost planner.Cost
	// Auto reports whether the cost-based planner chose the plan.
	Auto bool
	// CacheHit reports whether planning was served from the plan cache: by
	// this query's shape, possibly planned with other values for its slotted
	// constants (Plan then carries this query's values, while Cost and the
	// strategy, join and access choices are those of the values that planned
	// the shape).
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
	// Sched reports the morsel scheduler's per-query counters: morsels
	// dispatched to their home worker, morsels stolen by idle workers, and
	// summed worker busy time. All zero for plans with no partitioned
	// operators.
	Sched exec.SchedStats
}

// planned is a resolved physical planning decision: what the plan cache
// stores. Entries are immutable after construction — the plan is compiled
// afresh into iterators per execution, never mutated. vals are the slotted
// constants the plan carries.
type planned struct {
	plan     algebra.Plan
	strategy core.Strategy
	alt      string
	planner.PhysicalSpec
	cost       planner.Cost
	auto       bool
	candidates []planner.Candidate
	vals       []value.Value
}

// query is one bound top-level query, computed once per text: the bound
// expression, the tables it reads (sorted), its shape (tmql.Shape, the query
// part of the plan-cache key) and the values of its slotted constants in
// slot order. Query, Explain and their siblings bind one per call; a
// Prepared statement holds one for its lifetime.
type query struct {
	expr   tmql.Expr
	tables []string
	shape  string
	vals   []value.Value
	// memo is the last cache entry this query hit with other values, bound to
	// this query's: prepared statements of one shape share an entry, and each
	// substitutes its values once rather than per execution.
	memo atomic.Pointer[boundEntry]
}

// boundEntry copies the cached decision of, its plan carrying another query's
// values.
type boundEntry struct {
	of *planned
	planned
}

// bind parses and binds src and gives its constants parameter slots.
func (e *Engine) bind(src string) (*query, error) {
	expr, err := tmql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.bindExpr(expr)
}

// bindExpr binds a parsed (possibly already bound) expression and gives its
// constants parameter slots.
func (e *Engine) bindExpr(expr tmql.Expr) (*query, error) {
	bound, err := tmql.NewBinder(e.cat).Bind(expr)
	if err != nil {
		return nil, err
	}
	vals := tmql.MarkSlots(bound)
	return &query{expr: bound, tables: tmql.Tables(bound), shape: tmql.Shape(bound), vals: vals}, nil
}

// rebind returns the cached decision pl for q's constants: pl itself when it
// carries them already, otherwise a copy whose plan carries them (memoized
// per query). The copy keeps pl's strategy, physical spec, cost and candidate
// table: a shape plans once, against the first values that reach it.
func (q *query) rebind(pl *planned) *planned {
	if slices.EqualFunc(pl.vals, q.vals, value.Equal) {
		return pl
	}
	if m := q.memo.Load(); m != nil && m.of == pl {
		return &m.planned
	}
	m := &boundEntry{of: pl, planned: *pl}
	m.plan, m.vals = algebra.BindSlots(pl.plan, q.vals), q.vals
	q.memo.Store(m)
	return &m.planned
}

// Query parses, binds, translates, and executes a TM query string. It is
// QueryContext under context.Background() — uncancellable, ungoverned
// unless Options.Limits set budgets.
func (e *Engine) Query(src string, opts Options) (*Result, error) {
	return e.QueryContext(context.Background(), src, opts)
}

// QueryContext is Query observing ctx: cancellation and deadline reach every
// operator's Next()/build loop (including parallel workers, which drain and
// exit leak-free), surfacing as exec.ErrCanceled / exec.ErrDeadlineExceeded
// wrapped in an *AbortError carrying partial-work accounting.
func (e *Engine) QueryContext(ctx context.Context, src string, opts Options) (*Result, error) {
	q, err := e.bind(src)
	if err != nil {
		return nil, err
	}
	return e.execBound(ctx, q, opts, false)
}

// QueryExpr executes an already parsed (possibly already bound) expression.
func (e *Engine) QueryExpr(expr tmql.Expr, opts Options) (*Result, error) {
	return e.QueryExprContext(context.Background(), expr, opts)
}

// QueryExprContext is QueryExpr observing ctx.
func (e *Engine) QueryExprContext(ctx context.Context, expr tmql.Expr, opts Options) (*Result, error) {
	q, err := e.bindExpr(expr)
	if err != nil {
		return nil, err
	}
	return e.execBound(ctx, q, opts, false)
}

// execBound plans and executes a bound query — the shared tail of
// QueryContext, QueryExprContext, Prepared.QueryContext and Delete's victim
// query (oneShot: planned past the cache). The bound tree is never mutated,
// so prepared statements may execute it from many goroutines.
// Governance wraps the whole execution: Options.Limits.Timeout tightens the
// context's deadline, a Governor (created only when the context is
// cancellable or budgets are set — otherwise nil, the free path) is polled by
// every operator, and a recovered panic becomes a typed *PanicError rather
// than taking the process down.
func (e *Engine) execBound(ctx context.Context, q *query, opts Options, oneShot bool) (*Result, error) {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		if err := e.checkTablesLive(q.tables); err != nil {
			return nil, err
		}
		pl, hit, err := e.plan(q, opts, oneShot)
		if err != nil {
			return nil, err
		}
		res, err := e.runPlanned(ctx, q, opts, pl, hit, start)
		if err != nil && attempt == 0 && errors.Is(err, exec.ErrStaleIndex) {
			// The plan probed an index dropped between planning and Open (the
			// DropIndex cache sweep raced this execution). Sweep the query's
			// tables and replan once against the current index registry; only a
			// second stale failure — the churn outran the retry — surfaces.
			for _, name := range q.tables {
				e.cache.invalidateTable(name)
			}
			continue
		}
		return res, err
	}
}

// runPlanned executes one resolved planning decision under governance — the
// per-attempt body of execBound.
func (e *Engine) runPlanned(ctx context.Context, q *query, opts Options, pl *planned, hit bool, start time.Time) (res *Result, err error) {
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
	// One scheduler per query: every partitioned operator of the plan shares
	// the worker pool and the stats counters reported on Result.Sched.
	ectx.Sched = exec.NewScheduler(exec.SchedConfig{
		Workers: pl.Degree, MorselSize: pl.Batch, NoSteal: opts.NoSteal,
	})
	defer recoverAbort(gov, &res, &err)
	tree, cerr := planner.New(ectx, pl.PhysicalSpec).Compile(pl.plan)
	if cerr != nil {
		if terr := e.checkTablesLive(q.tables); terr != nil {
			return nil, terr
		}
		return nil, cerr
	}
	v, err := tree.Collect(gov)
	if err != nil {
		// A table dropped between the liveness pre-check and execution fails
		// deep in the executor with an untyped unknown-table error; reclassify
		// it (governance aborts keep their own taxonomy).
		if !abortCause(err) {
			if terr := e.checkTablesLive(q.tables); terr != nil {
				return nil, terr
			}
		}
		return nil, wrapAbort(fmt.Errorf("engine: executing %s: %w", pl.plan.Describe(), err), gov)
	}
	return &Result{
		Value:       v,
		Plan:        pl.plan,
		Expr:        q.expr,
		Strategy:    pl.strategy,
		Alt:         pl.alt,
		Joins:       pl.Joins,
		Access:      pl.Access,
		Parallelism: pl.Degree,
		Batch:       pl.Batch,
		Cost:        pl.cost,
		Auto:        pl.auto,
		CacheHit:    hit,
		Duration:    time.Since(start),
		EvalSteps:   ectx.Ev.Steps,
		Sched:       ectx.Sched.Stats(),
	}, nil
}

// plan resolves Options into a planned decision, consulting the plan cache
// first. On the cost-based path the cache key carries, per referenced table,
// the generation of the statistics the plan is costed against, so a cached
// decision is served until one of its tables has drifted far enough for the
// catalog to recollect it — then the key misses and the query replans against
// the new statistics. A write within the drift bound changes neither. That
// is safe because a planned decision holds only algebra and a PhysicalSpec:
// rows and indexes are resolved per execution, and every plan returns the
// same answer. Fixed-strategy plans depend on no statistics and touch none.
// The key's query part is the shape, so a hit may have been planned with
// other values for the slotted constants; rebind substitutes q's. A oneShot
// decision bypasses the cache in both directions. The reported bool is true
// on a cache hit.
func (e *Engine) plan(q *query, opts Options, oneShot bool) (*planned, bool, error) {
	pin := opts.pin()
	var gens strings.Builder
	if opts.Strategy != core.StrategyAuto {
		pin = pin.Fixed()
	} else {
		// One catalog lookup per table serves both the key and the degree.
		rows := 0
		for _, name := range q.tables {
			ts := e.statsCat.Table(name)
			fmt.Fprintf(&gens, "%s:%d,", name, ts.Epoch)
			rows = max(rows, ts.Card)
		}
		if pin.Degree <= 0 {
			pin.Degree = autoDegree(rows)
		}
	}
	var key string
	if !oneShot {
		key = cacheKey(q.shape, opts, pin, gens.String())
		if pl, ok := e.cache.get(key); ok {
			return q.rebind(pl), true, nil
		}
	}
	pl, err := e.planMiss(q.expr, opts, pin)
	if err != nil {
		return nil, false, err
	}
	pl.vals = q.vals
	// Validate a pinned join family before caching or executing, so Query and
	// Explain fail identically at plan time (the auto path only ever chooses
	// feasible families). An infeasible decision is never cached.
	if reason := planner.ImplInfeasible(pl.plan, pl.Joins); reason != "" {
		return nil, false, fmt.Errorf("engine: %s join requested but %s", pl.Joins, reason)
	}
	if !oneShot {
		e.cache.put(key, q.tables, pl)
	}
	return pl, false, nil
}

// autoDegree is the maximum degree the cost-based path enumerates when the
// caller leaves Parallelism to the planner: not the whole machine
// unconditionally but enough partitions for ~1k rows each of the query's
// largest table (rows, from its statistics), bounded by GOMAXPROCS (see
// planner.PartitionDegree). The chooser still decides whether parallelism
// pays.
func autoDegree(rows int) int {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		return procs
	}
	return planner.PartitionDegree(float64(rows), procs)
}

// planMiss performs the full planning work: translate (under the fixed
// strategy, or under every correct one), settle the logical alternatives
// (the pinned one, or all of them for the optimizer to weigh), and resolve
// the physical spec — by the pin's fixed defaults under a fixed strategy, by
// cost over alternative × join-family × degree × access × batch candidates
// otherwise.
func (e *Engine) planMiss(bound tmql.Expr, opts Options, pin planner.PhysicalSpec) (*planned, error) {
	est := planner.NewEstimatorStats(e.statsCat)
	alts, err := e.alternatives(bound, opts, est)
	if err != nil {
		return nil, err
	}
	var pl *planned
	if opts.Strategy != core.StrategyAuto {
		pl = &planned{plan: alts[0].Plan, strategy: opts.Strategy, alt: alts[0].Alt, PhysicalSpec: pin}
	} else {
		best, all, err := est.Choose(alts, pin)
		if err != nil {
			return nil, err
		}
		strategy, _ := core.ParseStrategy(best.Strategy)
		pl = &planned{
			plan: best.Plan, strategy: strategy, alt: best.Alt, PhysicalSpec: best.PhysicalSpec,
			cost: best.Cost, auto: true, candidates: all,
		}
	}
	// Result.Parallelism reports the degree the plan actually runs at: a
	// degree > 1 on a (possibly rewritten) plan with nothing to partition
	// is serial.
	if pl.Degree > 1 && !planner.Parallelizable(pl.plan, pl.Joins) {
		pl.Degree = 1
	}
	return pl, nil
}

// alternatives translates the query and returns the logical alternatives
// planning chooses among, restricted to Options.PinAlt when set. A fixed
// strategy yields exactly one: its translation as produced, or the §6
// rewrite fixpoint of it when PinAlt asks for that (any other label is the
// same no-match error the cost-based path raises) — no statistics are
// touched, so fixed-strategy benchmark runs skip that work. StrategyAuto
// translates under every correct strategy and expands each translation into
// its alternatives (as translated, §6 rewrite, join orders costed by est).
func (e *Engine) alternatives(bound tmql.Expr, opts Options, est *planner.Estimator) ([]planner.StrategyPlan, error) {
	if opts.Strategy != core.StrategyAuto {
		tr := core.NewTranslator(e.cat)
		p, err := tr.Translate(bound, opts.Strategy)
		if err != nil {
			return nil, err
		}
		alt := planner.StrategyPlan{Strategy: opts.Strategy.String(), Alt: planner.AltBase, Plan: p}
		if opts.PinAlt == planner.AltRewrite {
			if alt.Plan, err = algebra.Optimize(tr.Builder(), p); err != nil {
				return nil, err
			}
			alt.Alt = planner.AltRewrite
		}
		return planner.PinAlternatives([]planner.StrategyPlan{alt}, opts.PinAlt)
	}
	var sps []planner.StrategyPlan
	var firstErr error
	for _, s := range core.CandidateStrategies() {
		p, err := core.NewTranslator(e.cat).Translate(bound, s)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sps = append(sps, planner.StrategyPlan{Strategy: s.String(), Plan: p})
	}
	if len(sps) == 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("engine: no strategy could translate the query")
	}
	return planner.PinAlternatives(est.Alternatives(algebra.NewBuilder(e.cat), sps), opts.PinAlt)
}

// Explain parses, binds, and plans a query, returning the physical plan
// rendering — chosen strategy, join family, and parallelism degree,
// per-operator estimated rows and cost, and (on the cost-based path) every
// candidate considered — without executing it. Planning is served from the
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
// rejected inside plan, identically to execution.
func (e *Engine) explainBound(q *query, opts Options) (string, error) {
	if err := e.checkTablesLive(q.tables); err != nil {
		return "", err
	}
	pl, _, err := e.plan(q, opts, false)
	if err != nil {
		return "", err
	}
	est := planner.NewEstimatorStats(e.Stats())
	var b strings.Builder
	mode := "fixed"
	if pl.auto {
		mode = "cost-based"
	}
	alt := pl.alt
	if alt == "" {
		alt = planner.AltBase
	}
	batch := "row"
	if pl.Batch > 0 {
		batch = fmt.Sprintf("%d", pl.Batch)
	}
	// sched/morsel render the runtime configuration the plan executes under:
	// the scheduler's worker-pool size (= the degree) and the effective
	// rows-per-morsel the exchange feeds it.
	fmt.Fprintf(&b, "strategy=%s alt=%s joins=%s access=%s parallelism=%d sched=%d morsel=%d batch=%s (%s)\n",
		pl.strategy, alt, pl.Joins, pl.Access, pl.Degree, pl.Degree, exec.NormalizeBatchSize(pl.Batch), batch, mode)
	b.WriteString(est.Explain(pl.plan, pl.PhysicalSpec))
	if pl.auto && len(pl.candidates) > 1 {
		b.WriteString("candidates considered:\n")
		for _, c := range pl.candidates {
			fmt.Fprintf(&b, "  %s\n", c)
		}
	}
	return b.String(), nil
}

// PlanCandidates plans the query (through the plan cache, like Query and
// Explain) and returns every candidate the optimizer considered — the
// machine-readable form of EXPLAIN's candidate table. On a fixed-strategy
// path the slice is empty. The conformance harness uses it to enumerate and
// pin each logical alternative.
func (e *Engine) PlanCandidates(src string, opts Options) ([]planner.Candidate, error) {
	q, err := e.bind(src)
	if err != nil {
		return nil, err
	}
	pl, _, err := e.plan(q, opts, false)
	if err != nil {
		return nil, err
	}
	return pl.candidates, nil
}

// ExplainCosts renders the logical plan annotated with the cost model's
// per-node estimates (the auto physical mapping), without strategy
// enumeration. Explain is the physical, candidate-aware variant.
func (e *Engine) ExplainCosts(src string, opts Options) (string, error) {
	q, err := e.bind(src)
	if err != nil {
		return "", err
	}
	pl, _, err := e.plan(q, opts, false)
	if err != nil {
		return "", err
	}
	return planner.NewEstimatorStats(e.Stats()).ExplainCosts(pl.plan), nil
}
