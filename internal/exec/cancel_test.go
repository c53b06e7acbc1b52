package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"tmdb/internal/algebra"
	"tmdb/internal/faultinject"
)

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

// cancelMidRun runs the join built by mk under a governor, cancels it 20ms
// in while the fault point slows every row by 1ms, and asserts that Collect
// surfaces ErrCanceled within 5s, and that a rerun with faults off matches
// the oracle want.
func cancelMidRun(t *testing.T, point, want string, mk func(ctx *Ctx) BatchIterator) {
	t.Helper()
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

// TestHashJoinCancellation cancels HashJoin mid-build and mid-probe: the
// build and probe loops must observe the cancellation, Collect must surface
// ErrCanceled, and an identical query afterwards (faults off) must be
// byte-identical to the nested-loop oracle.
func TestHashJoinCancellation(t *testing.T) {
	l, r := genRows(1000, 13, "k", "v"), genRows(500, 7, "j", "w")
	want := collect(t, nlJoin(algebra.JoinInner, l, r, nil)).String()
	for _, ph := range hashPhases {
		t.Run(ph.name, func(t *testing.T) {
			cancelMidRun(t, ph.point, want, func(ctx *Ctx) BatchIterator {
				return hashJoin(ctx, algebra.JoinInner, l, r, nil, 0)
			})
		})
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
		t.Run(ph.name, func(t *testing.T) {
			cancelMidRun(t, ph.point, want, func(ctx *Ctx) BatchIterator {
				return hashNestJoin(ctx, l, r, "x.k", "y.j", nil)
			})
		})
	}
}

// TestGovernorBudgets pins the budget taxonomy at the exec layer: a row
// budget trips in CollectBatchesGoverned, a build budget trips inside the
// hash build, and both surface as *BudgetError matching ErrBudgetExceeded.
func TestGovernorBudgets(t *testing.T) {
	l, r := genRows(500, 13, "k", "v"), genRows(300, 7, "j", "w")
	gov := NewGovernor(context.Background(), Limits{MaxRows: 5})
	_, err := CollectBatchesGoverned(gov, hashJoin(NewCtxGoverned(nil, gov), algebra.JoinInner, l, r, nil, 0))
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("want rows BudgetError, got %v", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("BudgetError must match ErrBudgetExceeded, got %v", err)
	}

	gov = NewGovernor(context.Background(), Limits{MaxBuildBytes: 64})
	_, err = CollectBatchesGoverned(gov, hashJoin(NewCtxGoverned(nil, gov), algebra.JoinInner, l, r, nil, 0))
	if !errors.As(err, &be) || be.Resource != "build_bytes" {
		t.Fatalf("want build_bytes BudgetError, got %v", err)
	}
}
