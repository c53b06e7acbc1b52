package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"tmdb/internal/exec"
	"tmdb/internal/faultinject"
	"tmdb/internal/planner"
)

// Governance and chaos coverage for vectorized execution. Batched operators
// poll the governor and hit fault points once per batch, so these suites pin
// the batched contract directly: deadline aborts stay under the latency bound
// at every batch size (single-row batches through the default), fault points
// fire inside batch loops, nothing leaks, and the engine answers
// byte-identically once faults are off.

// TestDeadlineAbortsBatchedPlan is the batched form of the PR-7 acceptance
// scenario: with a 30ms delay per PointScan hit — now once per batch — a 50ms
// deadline must abort in well under 200ms at batch sizes 1, 64, and 1024,
// leaking no goroutines.
func TestDeadlineAbortsBatchedPlan(t *testing.T) {
	eng := slowDB()
	golden, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash, BatchSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := golden.Value.String()

	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 11,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointScan, Kind: faultinject.Delay, OneInN: 1, Delay: 30 * time.Millisecond},
		},
	})
	defer deactivate()
	for _, size := range []int{1, 64, 1024} {
		base := runtime.NumGoroutine()
		opts := Options{
			Joins: planner.ImplHash, BatchSize: size,
			Limits: Limits{Timeout: 50 * time.Millisecond},
		}
		start := time.Now()
		_, err := eng.Query(slowJoinQuery, opts)
		elapsed := time.Since(start)
		if !errors.Is(err, exec.ErrDeadlineExceeded) {
			t.Fatalf("batch=%d: want ErrDeadlineExceeded, got %v", size, err)
		}
		if elapsed > 200*time.Millisecond {
			t.Fatalf("batch=%d: deadline abort took %v, want < 200ms", size, elapsed)
		}
		var ab *AbortError
		if !errors.As(err, &ab) {
			t.Fatalf("batch=%d: abort must carry accounting, got %T", size, err)
		}
		waitGoroutines(t, base)
	}
	deactivate()

	for _, size := range []int{1, 64, 1024} {
		res, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash, BatchSize: size})
		if err != nil {
			t.Fatalf("batch=%d post-abort: %v", size, err)
		}
		if res.Value.String() != want {
			t.Fatalf("batch=%d: post-abort result diverged from row golden:\nwant %s\ngot  %s", size, want, res.Value)
		}
		if res.Batch != size {
			t.Fatalf("batch=%d: Result.Batch = %d", size, res.Batch)
		}
	}
}

// TestCancellationBatchedPlan cancels a batched query mid-flight: single-row
// batches make the 1ms-per-hit delay per row again, and the abort must
// surface as ErrCanceled within the usual taxonomy.
func TestCancellationBatchedPlan(t *testing.T) {
	eng := slowDB()
	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 12,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointScan, Kind: faultinject.Delay, OneInN: 1, Delay: time.Millisecond},
		},
	})
	defer deactivate()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := eng.QueryContext(ctx, slowJoinQuery, Options{Joins: planner.ImplHash, BatchSize: 1})
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestPanicIsolationBatched injects a panic into the batched hash build
// (every batch triggers): the engine must surface a typed *PanicError, leak
// nothing, and recover to byte-identical answers.
func TestPanicIsolationBatched(t *testing.T) {
	eng := slowDB()
	golden, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash, BatchSize: -1})
	if err != nil {
		t.Fatal(err)
	}

	for _, size := range []int{1, 64, 1024} {
		base := runtime.NumGoroutine()
		deactivate := faultinject.Activate(faultinject.Schedule{
			Seed: 13,
			Rules: []faultinject.Rule{
				{Point: faultinject.PointHashBuild, Kind: faultinject.Panic, OneInN: 1},
			},
		})
		_, err = eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash, BatchSize: size})
		deactivate()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("batch=%d: want *PanicError, got %v", size, err)
		}
		if _, ok := pe.Val.(*faultinject.InjectedPanic); !ok {
			t.Fatalf("batch=%d: recovered value is %T", size, pe.Val)
		}
		waitGoroutines(t, base)

		res, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash, BatchSize: size})
		if err != nil {
			t.Fatalf("batch=%d post-panic: %v", size, err)
		}
		if res.Value.String() != golden.Value.String() {
			t.Fatalf("batch=%d: post-panic result diverged", size)
		}
	}
}

// TestInjectedErrorBatched pins that injected scan errors stay typed through
// batch loops, and that build-byte budgets still trip when charged per batch.
func TestInjectedErrorBatched(t *testing.T) {
	eng := slowDB()
	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 14,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointScan, Kind: faultinject.Error, OneInN: 1},
		},
	})
	_, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash, BatchSize: 64})
	deactivate()
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("want *faultinject.InjectedError, got %v", err)
	}

	_, err = eng.Query(slowJoinQuery, Options{
		Joins: planner.ImplHash, BatchSize: 64, Limits: Limits{MaxBuildBytes: 128},
	})
	var be *exec.BudgetError
	if !errors.As(err, &be) || be.Resource != "build_bytes" {
		t.Fatalf("want build_bytes BudgetError, got %v", err)
	}
	_, err = eng.Query(slowJoinQuery, Options{
		Joins: planner.ImplHash, BatchSize: 64, Limits: Limits{MaxRows: 3},
	})
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("want rows BudgetError, got %v", err)
	}
}
