package engine

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"tmdb/internal/exec"
)

// Engine-level governance: per-query limits, the typed errors the context
// APIs surface, and partial-work accounting for aborted queries. The exec
// layer's taxonomy (exec.ErrCanceled, exec.ErrDeadlineExceeded,
// exec.ErrBudgetExceeded / *exec.BudgetError) passes through unchanged —
// match those with errors.Is; this file adds what only the engine can know:
// the wall-clock timeout (applied via context.WithTimeout so plain context
// semantics carry it), panic isolation, and how much work an aborted query
// had already done.

// Limits are per-query execution bounds. The zero value is unlimited.
type Limits struct {
	// Timeout is the query's wall-clock deadline, applied on top of (and
	// never extending) any deadline already on the caller's context.
	Timeout time.Duration
	// MaxRows bounds result rows produced (pre-deduplication).
	MaxRows int64
	// MaxBuildBytes bounds approximate hash/sort build bytes; see
	// exec.Limits.
	MaxBuildBytes int64
}

func (l Limits) exec() exec.Limits {
	return exec.Limits{MaxRows: l.MaxRows, MaxBuildBytes: l.MaxBuildBytes}
}

// PanicError is a panic recovered during query execution, isolated to the
// failing query: the engine (and any server above it) stays up. Val is the
// recovered value; Stack the goroutine stack at recovery.
type PanicError struct {
	Val   any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: panic during execution: %v", e.Val)
}

// AbortError wraps a governance abort (cancellation, deadline, budget, or
// panic) with the partial work the query performed before it stopped —
// the accounting the server reports as discarded work in /stats. Unwrap
// exposes the cause, so errors.Is/As against the exec taxonomy and
// *PanicError work through it.
type AbortError struct {
	Cause error
	// PartialRows and PartialBuildBytes are the governor's counters at abort:
	// result rows already produced and build bytes already materialized, all
	// discarded.
	PartialRows       int64
	PartialBuildBytes int64
}

func (e *AbortError) Error() string { return e.Cause.Error() }

// Unwrap exposes the abort cause.
func (e *AbortError) Unwrap() error { return e.Cause }

// ErrTableDropped is the errors.Is target of *TableDroppedError.
var ErrTableDropped = errors.New("engine: table dropped")

// TableDroppedError reports that a query (typically a prepared statement
// re-execution) references a table that has been dropped from the engine's
// database since it was bound.
type TableDroppedError struct {
	Table string
}

func (e *TableDroppedError) Error() string {
	return fmt.Sprintf("engine: table %s has been dropped", e.Table)
}

// Is makes errors.Is(err, ErrTableDropped) match.
func (e *TableDroppedError) Is(target error) bool { return target == ErrTableDropped }

// abortCause reports whether err is a governance abort worth wrapping with
// partial-work accounting.
func abortCause(err error) bool {
	if errors.Is(err, exec.ErrCanceled) ||
		errors.Is(err, exec.ErrDeadlineExceeded) ||
		errors.Is(err, exec.ErrBudgetExceeded) {
		return true
	}
	var pe *PanicError
	return errors.As(err, &pe)
}

// wrapAbort attaches partial-work accounting to governance aborts; other
// errors (and ungoverned queries) pass through untouched.
func wrapAbort(err error, gov *exec.Governor) error {
	if err == nil || gov == nil || !abortCause(err) {
		return err
	}
	return &AbortError{Cause: err, PartialRows: gov.Rows(), PartialBuildBytes: gov.BuildBytes()}
}

// recoverAbort is the deferred panic isolation of execBound: a panic during
// compile or execution becomes a typed *PanicError result (wrapped with
// partial-work accounting when governed) instead of tearing down the
// process.
func recoverAbort(gov *exec.Governor, res **Result, err *error) {
	if p := recover(); p != nil {
		*res = nil
		*err = wrapAbort(&PanicError{Val: p, Stack: string(debug.Stack())}, gov)
	}
}

// checkTablesLive returns a typed *TableDroppedError if any referenced table
// is gone from the database — the guard that turns prepared-statement
// re-execution after a drop into a clean typed error.
func (e *Engine) checkTablesLive(tables []string) error {
	for _, name := range tables {
		if _, ok := e.db.Table(name); !ok {
			return &TableDroppedError{Table: name}
		}
	}
	return nil
}
