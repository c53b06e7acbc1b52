package server

import (
	"fmt"
	"time"

	"tmdb/internal/core"
	"tmdb/internal/engine"
	"tmdb/internal/planner"
)

// WireOptions is the JSON form of engine.Options used by the HTTP API: every
// field is a human-readable name (the same vocabulary as cmd/tmql's flags),
// and the zero value maps to the engine's cost-based defaults. Sessions carry
// one resolved engine.Options; a request may also attach WireOptions of its
// own, which replace the session's for that request only.
type WireOptions struct {
	// Strategy: auto | naive | nestjoin | kim | outerjoin.
	Strategy string `json:"strategy,omitempty"`
	// Joins: auto | nl | hash | merge | index.
	Joins string `json:"joins,omitempty"`
	// Access: auto | scan | index.
	Access string `json:"access,omitempty"`
	// PinAlt pins a logical alternative by its candidate-table label: base |
	// rewrite (the §6-rewritten alternative) | order:…. The request decoder
	// is strict, so a body still carrying the removed "rewrite" field is a
	// 400; send "pin_alt": "rewrite".
	PinAlt string `json:"pin_alt,omitempty"`
	// TimeoutMs is the per-query wall-clock deadline in milliseconds
	// (0 = none). On expiry the request fails with 408 deadline_exceeded.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// MaxRows bounds result rows produced (pre-deduplication; 0 = unlimited).
	// On breach the request fails with 413 budget_exceeded.
	MaxRows int64 `json:"max_rows,omitempty"`
	// MaxBuildBytes bounds the approximate bytes materialized in hash/sort
	// build sides (0 = unlimited). On breach: 413 budget_exceeded.
	MaxBuildBytes int64 `json:"max_build_bytes,omitempty"`
}

// Engine resolves the wire form into engine.Options, rejecting unknown names.
func (w WireOptions) Engine() (engine.Options, error) {
	var opts engine.Options
	if w.Strategy != "" {
		s, err := core.ParseStrategy(w.Strategy)
		if err != nil {
			return opts, fmt.Errorf("unknown strategy %q (auto | naive | nestjoin | kim | outerjoin)", w.Strategy)
		}
		opts.Strategy = s
	}
	switch w.Joins {
	case "", "auto":
		opts.Joins = planner.ImplAuto
	case "nl":
		opts.Joins = planner.ImplNestedLoop
	case "hash":
		opts.Joins = planner.ImplHash
	case "merge":
		opts.Joins = planner.ImplMerge
	case "index", "idx":
		opts.Joins = planner.ImplIndex
	default:
		return opts, fmt.Errorf("unknown join impl %q (auto | nl | hash | merge | index)", w.Joins)
	}
	switch w.Access {
	case "", "auto":
		opts.Access = planner.AccessAuto
	case "scan":
		opts.Access = planner.AccessScan
	case "index", "idx", "idxscan":
		opts.Access = planner.AccessIndex
	default:
		return opts, fmt.Errorf("unknown access path %q (auto | scan | index)", w.Access)
	}
	opts.PinAlt = w.PinAlt
	if w.TimeoutMs < 0 {
		return opts, fmt.Errorf("timeout_ms must be >= 0, got %d", w.TimeoutMs)
	}
	if w.MaxRows < 0 {
		return opts, fmt.Errorf("max_rows must be >= 0, got %d", w.MaxRows)
	}
	if w.MaxBuildBytes < 0 {
		return opts, fmt.Errorf("max_build_bytes must be >= 0, got %d", w.MaxBuildBytes)
	}
	opts.Limits = engine.Limits{
		Timeout:       time.Duration(w.TimeoutMs) * time.Millisecond,
		MaxRows:       w.MaxRows,
		MaxBuildBytes: w.MaxBuildBytes,
	}
	return opts, nil
}
