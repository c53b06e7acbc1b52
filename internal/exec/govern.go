package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Query governance: cancellation, deadlines, and resource budgets, threaded
// through every operator. A Governor is shared by a query's whole operator
// tree and is consulted once per batch (Ctx.checkBatch) and in every per-row
// build and probe loop (Ctx.check). Ungoverned queries (Ctx.Gov == nil) pay
// a single nil check, keeping hot benchmark paths at their pre-governance
// cost.
//
// The error taxonomy operators surface (and the server maps to wire codes):
//
//	ErrCanceled          the caller's context was canceled (client gone)
//	ErrDeadlineExceeded  the wall-clock deadline expired
//	*BudgetError         a resource budget was exhausted; matches
//	                     errors.Is(err, ErrBudgetExceeded) and carries the
//	                     resource, limit, and observed usage

// ErrCanceled reports that the query's context was canceled.
var ErrCanceled = errors.New("exec: query canceled")

// ErrDeadlineExceeded reports that the query's wall-clock deadline expired.
var ErrDeadlineExceeded = errors.New("exec: query deadline exceeded")

// ErrBudgetExceeded is the errors.Is target every *BudgetError matches.
var ErrBudgetExceeded = errors.New("exec: query budget exceeded")

// BudgetError reports an exhausted resource budget.
type BudgetError struct {
	// Resource names the exhausted budget: "rows" or "build_bytes".
	Resource string
	// Limit is the configured budget; Used is the usage that tripped it.
	Limit, Used int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("exec: %s budget exceeded (limit %d, used %d)", e.Resource, e.Limit, e.Used)
}

// Is makes errors.Is(err, ErrBudgetExceeded) match any BudgetError.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// Limits are the per-query resource budgets. Zero fields are unlimited.
type Limits struct {
	// MaxRows bounds the number of rows the query's result set keeps: the
	// distinct rows of the plan root, counted as the collector keeps them
	// (CollectBatchesGoverned), however often the root repeats one.
	MaxRows int64
	// MaxBuildBytes bounds the approximate bytes materialized into hash
	// tables and sort runs, summed across all build sites of the plan. The
	// accounting is an estimate — encoded key bytes plus a fixed per-row
	// overhead — not an allocator measurement; it exists to bound runaway
	// builds, not to meter memory.
	MaxBuildBytes int64
}

// buildRowOverhead is the flat per-row estimate added to build-byte
// accounting on top of encoded key bytes (slice headers, bucket slots,
// retained value headers).
const buildRowOverhead = 48

// Governor enforces one query's cancellation and budgets. All methods are
// safe for concurrent use.
type Governor struct {
	done   <-chan struct{}
	ctx    context.Context
	limits Limits

	rows       atomic.Int64
	buildBytes atomic.Int64
}

// NewGovernor returns a governor observing ctx and enforcing limits, or nil
// when there is nothing to govern (background context with no budgets) — the
// nil Governor is the documented "free" fast path.
func NewGovernor(ctx context.Context, limits Limits) *Governor {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && limits == (Limits{}) {
		return nil
	}
	return &Governor{done: ctx.Done(), ctx: ctx, limits: limits}
}

// Err reports the query's cancellation state without blocking: nil while
// live, ErrDeadlineExceeded or ErrCanceled once the context is done.
func (g *Governor) Err() error {
	if g == nil || g.done == nil {
		return nil
	}
	select {
	case <-g.done:
		if errors.Is(g.ctx.Err(), context.DeadlineExceeded) {
			return ErrDeadlineExceeded
		}
		return ErrCanceled
	default:
		return nil
	}
}

// AddRows accounts n result rows against the row budget.
func (g *Governor) AddRows(n int64) error {
	if g == nil {
		return nil
	}
	used := g.rows.Add(n)
	if g.limits.MaxRows > 0 && used > g.limits.MaxRows {
		return &BudgetError{Resource: "rows", Limit: g.limits.MaxRows, Used: used}
	}
	return nil
}

// AddBuildBytes accounts n materialized bytes against the build budget.
func (g *Governor) AddBuildBytes(n int64) error {
	if g == nil {
		return nil
	}
	used := g.buildBytes.Add(n)
	if g.limits.MaxBuildBytes > 0 && used > g.limits.MaxBuildBytes {
		return &BudgetError{Resource: "build_bytes", Limit: g.limits.MaxBuildBytes, Used: used}
	}
	return nil
}

// Rows returns the rows accounted so far (partial-work reporting on abort).
func (g *Governor) Rows() int64 {
	if g == nil {
		return 0
	}
	return g.rows.Load()
}

// BuildBytes returns the build bytes accounted so far.
func (g *Governor) BuildBytes() int64 {
	if g == nil {
		return 0
	}
	return g.buildBytes.Load()
}

// checkEvery is the tick mask of Ctx.check: the governor's channel poll runs
// once per this many calls, so per-row checks in tight loops cost a counter
// increment and a branch between polls.
const checkEvery = 64

// check is the cancel-check of the per-row build and probe loops.
// Ungoverned contexts return immediately on the nil check; governed ones
// poll the governor once per checkEvery calls. See ARCHITECTURE.md
// "Cancellation, budgets, and fault injection" for the operator-author
// contract.
func (c *Ctx) check() error {
	if c.Gov == nil {
		return nil
	}
	c.ticks++
	if c.ticks&(checkEvery-1) != 0 {
		return nil
	}
	return c.Gov.Err()
}

// addBuild accounts one hash-build row (key bytes + flat overhead) and
// returns any budget error.
func (c *Ctx) addBuild(keyBytes int) error {
	n := int64(keyBytes) + buildRowOverhead
	c.built.bytes += n
	if c.Gov == nil {
		return nil
	}
	return c.Gov.AddBuildBytes(n)
}
