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

// Governance and chaos coverage for per-batch operator loops. Scans poll the
// governor and hit their fault point once per batch, so these suites pin
// that contract directly: deadline aborts stay under the latency bound, fault
// points fire inside batch loops, nothing leaks, and the engine answers
// byte-identically once faults are off.

// TestDeadlineAbortsBatchedPlan is the per-batch form of the deadline
// acceptance scenario: with a 30ms delay per PointScan hit — once per batch,
// so once per scanned table here — a 50ms deadline must abort in well under
// 200ms, leaking no goroutines.
func TestDeadlineAbortsBatchedPlan(t *testing.T) {
	eng := slowDB()
	golden, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash})
	if err != nil {
		t.Fatal(err)
	}
	want := golden.Value.String()

	coldMemos(eng)
	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 11,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointScan, Kind: faultinject.Delay, OneInN: 1, Delay: 30 * time.Millisecond},
		},
	})
	defer deactivate()
	base := runtime.NumGoroutine()
	opts := Options{Joins: planner.ImplHash, Limits: Limits{Timeout: 50 * time.Millisecond}}
	start := time.Now()
	_, err = eng.Query(slowJoinQuery, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("deadline abort took %v, want < 200ms", elapsed)
	}
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("abort must carry accounting, got %T", err)
	}
	waitGoroutines(t, base)
	deactivate()

	res, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash})
	if err != nil {
		t.Fatalf("post-abort: %v", err)
	}
	if res.Value.String() != want {
		t.Fatalf("post-abort result diverged from golden:\nwant %s\ngot  %s", want, res.Value)
	}
}

// TestCancellationBatchedPlan cancels a query mid-flight while every probe
// row is delayed 1ms, and the abort must surface as ErrCanceled within the
// usual taxonomy.
func TestCancellationBatchedPlan(t *testing.T) {
	eng := slowDB()
	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 12,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointHashProbe, Kind: faultinject.Delay, OneInN: 1, Delay: time.Millisecond},
		},
	})
	defer deactivate()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := eng.QueryContext(ctx, slowJoinQuery, Options{Joins: planner.ImplHash})
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestPanicIsolationBatched injects a panic into the hash build (every row
// triggers): the engine must surface a typed *PanicError, leak nothing, and
// recover to byte-identical answers.
func TestPanicIsolationBatched(t *testing.T) {
	eng := slowDB()
	golden, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 13,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointHashBuild, Kind: faultinject.Panic, OneInN: 1},
		},
	})
	_, err = eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash})
	deactivate()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if _, ok := pe.Val.(*faultinject.InjectedPanic); !ok {
		t.Fatalf("recovered value is %T", pe.Val)
	}
	waitGoroutines(t, base)

	res, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash})
	if err != nil {
		t.Fatalf("post-panic: %v", err)
	}
	if res.Value.String() != golden.Value.String() {
		t.Fatal("post-panic result diverged")
	}
}

// TestInjectedErrorBatched pins that injected scan errors stay typed through
// batch loops, and that build-byte and row budgets still trip when charged
// per batch.
func TestInjectedErrorBatched(t *testing.T) {
	eng := slowDB()
	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 14,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointScan, Kind: faultinject.Error, OneInN: 1},
		},
	})
	_, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash})
	deactivate()
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("want *faultinject.InjectedError, got %v", err)
	}

	_, err = eng.Query(slowJoinQuery, Options{
		Joins: planner.ImplHash, Limits: Limits{MaxBuildBytes: 128},
	})
	var be *exec.BudgetError
	if !errors.As(err, &be) || be.Resource != "build_bytes" {
		t.Fatalf("want build_bytes BudgetError, got %v", err)
	}
	_, err = eng.Query(slowJoinQuery, Options{
		Joins: planner.ImplHash, Limits: Limits{MaxRows: 3},
	})
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("want rows BudgetError, got %v", err)
	}
}
