package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"tmdb/internal/algebra"
	"tmdb/internal/faultinject"
)

// waitGoroutines polls until the goroutine count returns to (roughly) base,
// failing if partitioned-join workers are still alive after the deadline —
// the leak check of the cancellation contract.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak after cancellation: %d at start, %d now", base, runtime.NumGoroutine())
}

// slowPoint arms a 1ms-per-hit delay at the given fault point, making the
// targeted phase take ~1s of wall clock per thousand rows without burning CPU.
func slowPoint(point string) func() {
	return faultinject.Activate(faultinject.Schedule{
		Seed: 1,
		Rules: []faultinject.Rule{
			{Point: point, Kind: faultinject.Delay, OneInN: 1, Delay: time.Millisecond},
		},
	})
}

// cancelDegrees are the degrees the hash family's cancellation, budget and
// fault cases run at: one table, and partitioned.
var cancelDegrees = []int{1, 4}

// cancelMidRun runs the join built by mk under a governor, cancels it 20ms
// in while the fault point slows every row by 1ms, and asserts that Collect
// surfaces ErrCanceled within 5s, that no worker goroutine outlives it, and
// that a rerun with faults off matches the oracle want.
func cancelMidRun(t *testing.T, point, want string, mk func(ctx *Ctx) BatchIterator) {
	t.Helper()
	base := runtime.NumGoroutine()
	deactivate := slowPoint(point)
	defer deactivate()

	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gov := NewGovernor(cctx, Limits{})
	done := make(chan error, 1)
	go func() {
		_, err := CollectBatchesGoverned(gov, mk(NewCtxGoverned(nil, gov)))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the join within 5s")
	}
	deactivate()
	waitGoroutines(t, base)

	if got := collectBatches(t, mk(NewCtx(nil))).String(); got != want {
		t.Fatalf("post-cancel rerun diverged from oracle:\nwant %s\ngot  %s", want, got)
	}
}

// hashPhases are the hash family's fault points: one per build row, one per
// probe row.
var hashPhases = []struct{ name, point string }{
	{"build", faultinject.PointHashBuild},
	{"probe", faultinject.PointHashProbe},
}

// TestHashJoinCancellation cancels HashJoin mid-build and mid-probe at every
// cancellation degree: at degree 1 the build and probe loops, partitioned the
// workers, must observe the cancellation, drain, and exit without leaking
// goroutines; Collect must surface ErrCanceled, and an identical query
// afterwards (faults off) must be byte-identical to the nested-loop oracle.
func TestHashJoinCancellation(t *testing.T) {
	l, r := genRows(1000, 13, "k", "v"), genRows(500, 7, "j", "w")
	want := collect(t, nlJoin(algebra.JoinInner, l, r, nil)).String()
	for _, ph := range hashPhases {
		for _, degree := range cancelDegrees {
			t.Run(fmt.Sprintf("%s/p=%d", ph.name, degree), func(t *testing.T) {
				cancelMidRun(t, ph.point, want, func(ctx *Ctx) BatchIterator {
					return hashJoin(ctx, algebra.JoinInner, l, r, nil, degree, 0)
				})
			})
		}
	}
}

// TestHashNestJoinCancellation is the same contract for the hash nest join.
func TestHashNestJoinCancellation(t *testing.T) {
	l, r := genRows(1000, 17, "k", "v"), genRows(500, 11, "j", "w")
	want := collect(t, &NLNestJoin{
		Ctx: NewCtx(nil), L: &SliceScan{Rows: l}, R: &SliceScan{Rows: r}, LVar: "x", RVar: "y",
		Pred: pred("x.k = y.j"), Fn: pred("y"), Label: "s",
	}).String()
	for _, ph := range hashPhases {
		for _, degree := range cancelDegrees {
			t.Run(fmt.Sprintf("%s/p=%d", ph.name, degree), func(t *testing.T) {
				cancelMidRun(t, ph.point, want, func(ctx *Ctx) BatchIterator {
					return hashNestJoin(ctx, l, r, "x.k", "y.j", nil, degree)
				})
			})
		}
	}
}

// TestGovernorBudgets pins the budget taxonomy at the exec layer: a row
// budget trips in CollectBatchesGoverned, a build budget trips inside the
// hash build — shared by the workers when partitioned — and both surface as
// *BudgetError matching ErrBudgetExceeded.
func TestGovernorBudgets(t *testing.T) {
	l, r := genRows(500, 13, "k", "v"), genRows(300, 7, "j", "w")
	for _, degree := range cancelDegrees {
		gov := NewGovernor(context.Background(), Limits{MaxRows: 5})
		_, err := CollectBatchesGoverned(gov, hashJoin(NewCtxGoverned(nil, gov), algebra.JoinInner, l, r, nil, degree, 0))
		var be *BudgetError
		if !errors.As(err, &be) || be.Resource != "rows" {
			t.Fatalf("p=%d: want rows BudgetError, got %v", degree, err)
		}
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("p=%d: BudgetError must match ErrBudgetExceeded, got %v", degree, err)
		}

		gov = NewGovernor(context.Background(), Limits{MaxBuildBytes: 64})
		_, err = CollectBatchesGoverned(gov, hashJoin(NewCtxGoverned(nil, gov), algebra.JoinInner, l, r, nil, degree, 0))
		if !errors.As(err, &be) || be.Resource != "build_bytes" {
			t.Fatalf("p=%d: want build_bytes BudgetError, got %v", degree, err)
		}
	}
}

// TestSchedulerPanicPropagates pins the worker panic contract: a panic
// inside a scheduled morsel resurfaces on the calling goroutine (where the
// engine's recover can isolate it) instead of crashing the process from a
// worker, and the pool drains first; at degree 1 the panic is the caller's
// own.
func TestSchedulerPanicPropagates(t *testing.T) {
	l, r := genRows(2000, 13, "k", "v"), genRows(1000, 7, "j", "w")
	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 7,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointHashBuild, Kind: faultinject.Panic, OneInN: 50},
		},
	})
	defer deactivate()
	base := runtime.NumGoroutine()
	for _, degree := range cancelDegrees {
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("p=%d: panic did not propagate to the caller", degree)
				}
				if _, ok := p.(*faultinject.InjectedPanic); !ok {
					t.Fatalf("p=%d: propagated panic is %T, want *faultinject.InjectedPanic", degree, p)
				}
			}()
			_, _ = CollectBatches(hashJoin(NewCtx(nil), algebra.JoinInner, l, r, nil, degree, 0))
		}()
	}
	deactivate()
	waitGoroutines(t, base)
}
