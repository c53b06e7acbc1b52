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
		_, err := CollectBatchesGoverned(gov, mk(NewCtxGoverned(nil, gov)), AnyRows)
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

	if got := collect(t, mk(NewCtx(nil))).String(); got != want {
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
	want := collect(t, nlNestJoin(l, r, pred("x.k = y.j"))).String()
	for _, ph := range hashPhases {
		t.Run(ph.name, func(t *testing.T) {
			cancelMidRun(t, ph.point, want, func(ctx *Ctx) BatchIterator {
				return hashNestJoin(ctx, l, r, "x.k", "y.j", nil)
			})
		})
	}
}

// TestMergeJoinCancellation is the same contract for the sort-merge join,
// cancelled mid-sort (its inputs cut into single-row batches, each passing
// the sort.build point) and mid-probe.
func TestMergeJoinCancellation(t *testing.T) {
	l, r := genRows(1000, 17, "k", "v"), genRows(500, 11, "j", "w")
	want := collect(t, nlNestJoin(l, r, pred("x.k = y.j"))).String()
	for _, ph := range []struct{ name, point string }{
		{"sort", faultinject.PointSortBuild},
		{"probe", faultinject.PointHashProbe},
	} {
		t.Run(ph.name, func(t *testing.T) {
			cancelMidRun(t, ph.point, want, func(ctx *Ctx) BatchIterator {
				j := hashNestJoin(ctx, nil, nil, "x.k", "y.j", nil)
				j.Method, j.L, j.R = JoinMerge, &SliceScan{Rows: l, Size: 1}, &SliceScan{Rows: r, Size: 1}
				return j
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
	_, err := CollectBatchesGoverned(gov, hashJoin(NewCtxGoverned(nil, gov), algebra.JoinInner, l, r, nil, 0), AnyRows)
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("want rows BudgetError, got %v", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("BudgetError must match ErrBudgetExceeded, got %v", err)
	}

	gov = NewGovernor(context.Background(), Limits{MaxBuildBytes: 64})
	_, err = CollectBatchesGoverned(gov, hashJoin(NewCtxGoverned(nil, gov), algebra.JoinInner, l, r, nil, 0), AnyRows)
	if !errors.As(err, &be) || be.Resource != "build_bytes" {
		t.Fatalf("want build_bytes BudgetError, got %v", err)
	}
}

// TestRowBudgetBoundsJoinFanout pins that the row budget bounds what a join
// materializes: with every left row matching every right row, a join that
// emitted a whole left batch's output at once would build |L|·|R| tuples
// before the budget could count any. Join cuts its output at
// DefaultBatchSize rows, so the budget trips within one bucket's fanout.
func TestRowBudgetBoundsJoinFanout(t *testing.T) {
	l, r := genRows(DefaultBatchSize, 1, "k", "v"), genRows(4000, 1, "j", "w")
	for name, method := range map[string]JoinMethod{"nl": JoinNL, "hash": JoinHash} {
		gov := NewGovernor(context.Background(), Limits{MaxRows: 1000})
		j := hashJoin(NewCtxGoverned(nil, gov), algebra.JoinInner, l, r, nil, 0)
		if method == JoinNL {
			j = nlJoin(algebra.JoinInner, l, r, nil)
			j.Ctx = NewCtxGoverned(nil, gov)
		}
		_, err := CollectBatchesGoverned(gov, j, AnyRows)
		var be *BudgetError
		if !errors.As(err, &be) || be.Resource != "rows" {
			t.Fatalf("%s: want rows BudgetError, got %v", name, err)
		}
		if limit := int64(DefaultBatchSize + len(r)); be.Used > limit {
			t.Errorf("%s: %d rows produced before the budget tripped, want at most %d", name, be.Used, limit)
		}
	}
}
