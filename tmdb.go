// Package tmdb is a query processor for a complex object model implementing
// the nested-query optimization techniques of Steenhagen, Apers & Blanken,
// "Optimization of Nested Queries in a Complex Object Model" (EDBT 1994).
//
// It provides:
//
//   - a TM-style data model: arbitrarily nested tuples, duplicate-free sets,
//     lists, and basic values, with classes, extensions, and sorts;
//   - the orthogonal SELECT-FROM-WHERE query language of the paper, with
//     quantifiers, aggregates, set comparisons, WITH, and UNNEST;
//   - the paper's unnesting optimizer: predicates between query blocks are
//     classified (Table 2 / Theorem 1); flattenable queries compile to
//     semijoins and antijoins, the rest to the paper's nest join operator,
//     which groups while joining and preserves dangling tuples without NULLs;
//   - baselines: naive nested-loop evaluation, Kim's group-then-join
//     transformation (exhibiting the generalized COUNT bug), and the
//     outerjoin + ν* repair;
//   - physical operators: nested-loop / hash / sort-merge implementations of
//     joins and nest joins, hash semijoins/antijoins, outerjoins, ν, ν*, μ;
//   - a unified cost-driven optimizer: with Options left zero the engine
//     enumerates the correct strategies × logical alternatives (each
//     translation as produced, its §6 rewrite, and bushy/left-deep join
//     orders for multi-FROM blocks) × join implementations × parallelism
//     degrees, costs them against per-table statistics (see Analyze), and
//     executes the cheapest; Engine.Explain renders the chosen physical plan
//     with per-operator estimated rows and cost plus the full candidate
//     table. Options.PinAlt pins one alternative by its candidate-table
//     label (AltRewrite pins the §6-rewritten one; the optimizer weighs
//     rewrites regardless);
//   - histogram/sketch statistics: tables above a threshold are summarized
//     by equi-depth histograms and KMV distinct-count sketches (selectivity,
//     NDV, and dangling fractions become bounded-error estimates), tiny
//     tables keep exact figures;
//   - morsel-driven parallel execution: hash joins and hash nest joins run
//     as batch-sized morsels on a work-stealing scheduler sized by
//     Options.Parallelism (under the auto strategy the degree is sized from
//     table statistics, capped at GOMAXPROCS, and the cost model decides
//     whether parallelism pays; fixed strategies opt in explicitly). Idle
//     workers steal morsels from skewed partitions, Options.NoSteal pins
//     morsels to their home worker as an ablation knob, scheduler counters
//     (morsels dispatched/stolen, busy time) surface on Result.Sched, and
//     results are bit-identical to serial execution at any degree and any
//     steal schedule;
//   - vectorized batch execution: the hot path (scans, filters, projections,
//     hash joins, and the parallel exchange) moves rows in batches of up to
//     Options.BatchSize with pre-encoded join keys, costed against
//     row-at-a-time execution as a physical dimension (0 lets the cost model
//     decide, n > 0 pins batches of n, negative pins rows); results are
//     byte-identical to the row engine and EXPLAIN annotates batched
//     operators with [batch=n];
//   - mutable storage whose writes cost what they change: tables are
//     bulk-loaded, sealed, and then mutated in place (Engine.Insert /
//     Engine.Delete / Engine.InsertValue / Engine.DeleteValue, or the
//     storage-level InsertSealed / Delete / DeleteWhere / Unseal→reseal
//     cycle). A write copies the table's row slice once and advances its
//     data epoch; it rescans no statistics and discards no plan. Statistics
//     only steer cost — every plan returns the same answer — so they may
//     drift: a table is recollected once a tenth of its cardinality has
//     changed since (per table; Engine.Analyze forces it exact);
//     Engine.Delete runs its predicate as a planned query, so an index
//     covering it is used;
//   - persistent secondary indexes: Engine.CreateIndex registers a hash
//     index on an ordered attribute list — one attribute for the classic
//     equi-key index, several for a composite index whose every prefix is
//     probeable (rebuilt on Seal, maintained incrementally by mutations).
//     The optimizer costs an idxjoin family (IndexJoins) that probes the
//     index per outer row instead of draining and hashing the inner table
//     (composite indexes serve multi-key equi-joins with no residual), and
//     an idxscan access path (Options.Access) that answers single-table
//     equality selections σ[x.a = c](X) from the matching bucket without
//     scanning — probe costs come from per-bucket depth statistics, EXPLAIN
//     lists both candidate kinds, and the cost-based path picks them when
//     statistics favor it. Engine.DropIndex removes an index; compiled
//     plans pin a copy-on-write index snapshot at plan time, so dropping
//     an index under concurrent queries never fails them — affected
//     cached plans are swept and recompile against the shrunken registry;
//   - a bounded per-engine plan cache memoizing (bound query, options,
//     statistics generations) → physical plan with LRU eviction (default
//     capacity 256, see Engine.SetPlanCacheCapacity), so repeated queries
//     skip translation and candidate enumeration, also across writes: a
//     query replans when the statistics of a table it reads were
//     recollected (drift past the bound, or Analyze) and when an index or
//     table it reads is created or dropped (a per-table sweep);
//     Engine.PlanCacheStats reports hits, misses, evictions, and
//     invalidations;
//   - end-to-end cancellation and resource governance: context-observing
//     APIs (Engine.QueryContext, Prepared.QueryContext), per-query
//     wall-clock deadlines and row / build-byte budgets (Options.Limits)
//     honored cooperatively by every operator including parallel workers, a
//     typed abort taxonomy (ErrCanceled, ErrDeadlineExceeded,
//     ErrBudgetExceeded, ErrTableDropped) with partial-work accounting
//     (AbortError), panic isolation (PanicError), and a deterministic
//     seed-addressable fault-injection harness (internal/faultinject)
//     backing a chaos conformance suite.
//
// Quickstart:
//
//	cat, db := tmdb.CompanyExample(4, 20, 1)
//	eng := tmdb.New(cat, db)
//	res, err := eng.Query(`SELECT d.name FROM DEPT d`, tmdb.Options{})
//	fmt.Println(res.Value)
//
// See examples/ for complete programs and EXPERIMENTS.md for the paper
// reproduction.
package tmdb

import (
	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/exec"
	"tmdb/internal/planner"
	"tmdb/internal/schema"
	"tmdb/internal/server"
	"tmdb/internal/stats"
	"tmdb/internal/storage"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Engine executes TM queries. Construct with New.
type Engine = engine.Engine

// Options configure one query execution.
type Options = engine.Options

// Result is a query outcome: value, plan, timings.
type Result = engine.Result

// Strategy selects how nested queries are processed.
type Strategy = core.Strategy

// Strategies.
const (
	// Auto (the zero value, so an unset Options picks it) lets the
	// cost-based planner choose among the correct strategies × join
	// implementations using per-table statistics. Kim is never
	// auto-selected: it loses dangling tuples.
	Auto = core.StrategyAuto
	// Naive evaluates nested queries by tuple-at-a-time nested loops.
	Naive = core.StrategyNaive
	// NestJoin is the paper's strategy: semijoin/antijoin where Theorem 1
	// permits, nest join otherwise.
	NestJoin = core.StrategyNestJoin
	// Kim is the relational group-then-join baseline; it loses dangling
	// tuples (the COUNT bug) and exists for the paper's experiments.
	Kim = core.StrategyKim
	// OuterJoin is the relational repair: outerjoin followed by the
	// NULL-aware nest ν*.
	OuterJoin = core.StrategyOuterJoin
)

// Logical-alternative labels for Options.PinAlt and Result.Alt. Join-order
// alternatives use the "order:…" labels shown in EXPLAIN's candidate table.
const (
	// AltBase is a strategy's translation as produced.
	AltBase = planner.AltBase
	// AltRewrite is the §6 rewrite fixpoint of a translation.
	AltRewrite = planner.AltRewrite
)

// JoinImpl selects the physical join family.
type JoinImpl = planner.JoinImpl

// Physical join implementations.
const (
	// AutoJoins picks hash joins when an equi-key exists, else nested loops.
	AutoJoins = planner.ImplAuto
	// NestedLoopJoins forces nested-loop implementations.
	NestedLoopJoins = planner.ImplNestedLoop
	// HashJoins forces hash implementations (errors without equi-keys).
	HashJoins = planner.ImplHash
	// MergeJoins uses sort-merge for nest joins (hash elsewhere).
	MergeJoins = planner.ImplMerge
	// IndexJoins probes persistent per-table hash indexes (see
	// Engine.CreateIndex) where one covers a prefix of the join keys,
	// falling back to the auto mapping elsewhere. Shown as "idxjoin" in
	// EXPLAIN.
	IndexJoins = planner.ImplIndex
)

// AccessPath selects how leaf selections read their tables.
type AccessPath = planner.AccessPath

// Access paths for Options.Access and Result.Access.
const (
	// AutoAccess (the zero value) lets the cost-based planner weigh index
	// scans against full scans wherever a selection's equality conjuncts
	// cover a live index prefix.
	AutoAccess = planner.AccessAuto
	// ScanAccess pins full scans (the pre-index behavior).
	ScanAccess = planner.AccessScan
	// IndexAccess pins index scans where a live index matches, with
	// per-selection fallback to scans. Shown as "idxscan" in EXPLAIN.
	IndexAccess = planner.AccessIndex
)

// Catalog is a TM schema: classes with extensions and sorts.
type Catalog = schema.Catalog

// DB is an in-memory complex-object store addressed by extension name.
type DB = storage.DB

// Table is one extension's stored tuples.
type Table = storage.Table

// Value is a TM complex-object value.
type Value = value.Value

// Type is a TM type.
type Type = types.Type

// CacheStats reports the engine's plan-cache entry and hit/miss counts
// (see Engine.PlanCacheStats).
type CacheStats = engine.CacheStats

// SchedStats are one query's morsel-scheduler counters, surfaced on
// Result.Sched: morsels dispatched and stolen, and per-worker busy time.
// Stolen > 0 says work stealing actually rebalanced a skewed partition;
// Options.NoSteal pins morsels to their home worker (an ablation knob —
// results are identical either way, only the counters move).
type SchedStats = exec.SchedStats

// Prepared is a parsed-and-bound statement that executes without re-parsing
// and shares the engine's plan cache (see Engine.Prepare). Safe for
// concurrent use.
type Prepared = engine.Prepared

// Limits are per-query execution bounds — wall-clock timeout, result-row
// budget, and hash/sort build-byte budget — set on Options.Limits and
// enforced cooperatively by every operator. Cancellation and deadlines also
// flow in through Engine.QueryContext / Prepared.QueryContext. The zero
// value is unlimited.
type Limits = engine.Limits

// Governance error taxonomy. Aborted queries surface typed errors matchable
// with errors.Is/errors.As regardless of how deep in the plan they stopped:
//
//	ErrCanceled         — the caller's context was canceled mid-execution
//	ErrDeadlineExceeded — Limits.Timeout (or the context deadline) expired
//	ErrBudgetExceeded   — a Limits budget tripped (*BudgetError has which)
//	ErrTableDropped     — a referenced table was dropped (*TableDroppedError)
var (
	ErrCanceled         = exec.ErrCanceled
	ErrDeadlineExceeded = exec.ErrDeadlineExceeded
	ErrBudgetExceeded   = exec.ErrBudgetExceeded
	ErrTableDropped     = engine.ErrTableDropped
)

// BudgetError reports which resource budget tripped, its limit, and usage.
type BudgetError = exec.BudgetError

// PanicError is a panic recovered during execution, isolated to the failing
// query (the engine stays up); Val and Stack carry the recovery context.
type PanicError = engine.PanicError

// AbortError wraps a governance abort with the partial work the query had
// already performed (rows produced, build bytes materialized) — all
// discarded. Unwrap exposes the cause.
type AbortError = engine.AbortError

// TableDroppedError reports execution against a dropped table, typically a
// prepared statement outliving Engine.DropTable.
type TableDroppedError = engine.TableDroppedError

// Server serves one engine over an HTTP/JSON API with sessions, prepared
// statements, admission control, and graceful shutdown (see cmd/tmserver).
type Server = server.Server

// ServerConfig parameterizes a Server.
type ServerConfig = server.Config

// WireOptions is the JSON form of Options used by the server API.
type WireOptions = server.WireOptions

// Client is a typed client for the server's HTTP/JSON API: queries,
// prepared statements, EXPLAIN, stats, and the mutation endpoints
// (Insert, Delete, CreateIndex, DropIndex).
type Client = server.Client

// RetryPolicy bounds a Client's automatic retry of transient server
// rejections (queue_timeout, draining) on idempotent requests. Mutation
// requests are never retried automatically: a timed-out insert may have
// applied, so re-sending is the caller's decision.
type RetryPolicy = server.RetryPolicy

// NewServer returns an HTTP query server over eng.
func NewServer(eng *Engine, cfg ServerConfig) *Server { return server.New(eng, cfg) }

// NewServerClient returns a client for the server at base
// (e.g. "http://127.0.0.1:8080").
func NewServerClient(base string) *Client { return server.NewClient(base, nil) }

// Stats is a per-table statistics catalog (cardinality, distinct counts,
// set-attribute fan-out, dangling fractions) backing the cost-based planner.
type Stats = stats.Catalog

// TableStats summarizes one extension table for the cost model.
type TableStats = stats.TableStats

// Analyze scans every table of db and returns the statistics catalog — the
// ANALYZE entry point. Engines collect the same statistics lazily; use
// Engine.Analyze to refresh an engine's cached catalog.
func Analyze(db *DB) *Stats { return stats.Analyze(db) }

// New returns an engine over the given schema and data.
func New(cat *Catalog, db *DB) *Engine { return engine.New(cat, db) }

// NewCatalog returns an empty schema catalog.
func NewCatalog() *Catalog { return schema.NewCatalog() }

// NewDB returns an empty database.
func NewDB() *DB { return storage.NewDB() }

// CompanySchema returns the paper's §3.2 example schema (classes Employee
// and Department with extensions EMP and DEPT, sort Address).
func CompanySchema() *Catalog { return schema.Company() }

// CompanyExample returns the company schema populated with a deterministic
// synthetic instance of nDept departments and nEmp employees.
func CompanyExample(nDept, nEmp int, seed int64) (*Catalog, *DB) {
	return datagen.Company(nDept, nEmp, seed)
}
