package engine

import (
	"context"

	"tmdb/internal/planner"
)

// Prepared is a parse-once/bind-once statement: Prepare pays parsing,
// binding, and computing the plan-cache key's query part (the shape) and the
// referenced tables a single time, and every execution goes straight to
// planning — where the plan cache takes over, keyed on the shape, the
// options, and the statistics generations of the referenced tables.
// Statements differing only in slotted constants share one entry. Repeated
// executions hit the cached decision across writes; once a table has drifted
// far enough for its statistics to be recollected (or after Analyze) the
// next execution replans automatically.
//
// A Prepared is immutable after construction: the bound tree is never
// mutated by planning or execution, so one statement may be executed from
// many goroutines concurrently, with per-execution Options.
type Prepared struct {
	e   *Engine
	src string
	q   *query
}

// Prepare parses and binds src once, returning a reusable statement.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	q, err := e.bind(src)
	if err != nil {
		return nil, err
	}
	return &Prepared{e: e, src: src, q: q}, nil
}

// Source returns the statement text as prepared.
func (p *Prepared) Source() string { return p.src }

// Tables returns the extension tables the statement references (sorted) —
// the set whose statistics generations key its cached plans.
func (p *Prepared) Tables() []string { return append([]string(nil), p.q.tables...) }

// Query plans (through the engine's plan cache) and executes the statement.
func (p *Prepared) Query(opts Options) (*Result, error) {
	return p.QueryContext(context.Background(), opts)
}

// QueryContext is Query observing ctx (cancellation, deadline, budgets —
// see Engine.QueryContext). Re-execution after a referenced table has been
// dropped returns a typed *TableDroppedError instead of failing deep in the
// executor.
func (p *Prepared) QueryContext(ctx context.Context, opts Options) (*Result, error) {
	return p.e.execBound(ctx, p.q, opts, false)
}

// Explain renders the physical plan the statement would execute with, using
// the same plan-cache lookup as Query.
func (p *Prepared) Explain(opts Options) (string, error) {
	return p.e.explainBound(p.q, opts)
}

// ExplainContext is Explain observing ctx, mirroring Engine.ExplainContext.
func (p *Prepared) ExplainContext(ctx context.Context, opts Options) (string, error) {
	if err := ctxErr(ctx); err != nil {
		return "", err
	}
	return p.e.explainBound(p.q, opts)
}

// Candidates plans the statement and returns the optimizer's candidate table,
// like Engine.PlanCandidates.
func (p *Prepared) Candidates(opts Options) ([]planner.Candidate, error) {
	pl, _, err := p.e.plan(p.q, opts, false)
	if err != nil {
		return nil, err
	}
	return pl.candidates, nil
}
