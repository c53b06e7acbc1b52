package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"tmdb/internal/datagen"
	"tmdb/internal/exec"
	"tmdb/internal/faultinject"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// slowDB returns an engine whose flat X ⋈ Z join scans >1000 rows, so a
// 1ms-per-row scan delay makes the fault-free-serial-fast plan take >1s.
func slowDB() *Engine {
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 400, NY: 10, NZ: 800, Keys: 20, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1,
	})
	return New(cat, db)
}

const slowJoinQuery = `SELECT (xb = x.b, zc = z.c) FROM X x, Z z WHERE x.b = z.d`

// coldMemos reloads every table of eng with its own rows: each gets a fresh
// snapshot memo, so the next execution scans and builds instead of probing
// builds the last one kept.
func coldMemos(eng *Engine) {
	for _, name := range eng.DB().Names() {
		t, _ := eng.DB().Table(name)
		if err := t.Load(t.AsSet().Elems()); err != nil {
			panic(err)
		}
	}
}

func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d at start, %d now", base, runtime.NumGoroutine())
}

// TestDeadlineAbortsSlowPlan is the deadline acceptance scenario: a query
// with a 50ms deadline against a plan that would run >1s (every hash build
// and probe row delayed 1ms)
// must return deadline_exceeded in well under 200ms, leak no goroutines, and
// leave the engine answering byte-identically afterwards.
func TestDeadlineAbortsSlowPlan(t *testing.T) {
	eng := slowDB()
	golden, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash})
	if err != nil {
		t.Fatal(err)
	}
	want := golden.Value.String()

	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 1,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointHashBuild, Kind: faultinject.Delay, OneInN: 1, Delay: time.Millisecond},
			{Point: faultinject.PointHashProbe, Kind: faultinject.Delay, OneInN: 1, Delay: time.Millisecond},
		},
	})
	defer deactivate()
	base := runtime.NumGoroutine()
	// Scans hit their fault point once per batch; the build and probe
	// points fire per row, which is what makes this plan slow.
	// govern_batch_test.go covers the per-batch scan delay.
	opts := Options{
		Joins:  planner.ImplHash,
		Limits: Limits{Timeout: 50 * time.Millisecond},
	}
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
		t.Fatalf("deadline abort must carry partial-work accounting, got %T", err)
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

// TestQueryContextCancellation cancels a context mid-flight: the query must
// abort with ErrCanceled (wrapped in AbortError), and a pre-canceled context
// must fail without executing at all.
func TestQueryContextCancellation(t *testing.T) {
	eng := slowDB()
	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 2,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointHashBuild, Kind: faultinject.Delay, OneInN: 1, Delay: time.Millisecond},
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
	deactivate()

	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := eng.QueryContext(pre, slowJoinQuery, Options{}); !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("pre-canceled context: want ErrCanceled, got %v", err)
	}
	if _, err := eng.ExplainContext(pre, slowJoinQuery, Options{}); !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("pre-canceled explain: want ErrCanceled, got %v", err)
	}
}

// TestRowAndBuildBudgets pins the budget taxonomy end to end through the
// engine: row budgets trip with Resource "rows" and carry the partial rows
// produced; build budgets trip inside hash builds with Resource
// "build_bytes"; both match ErrBudgetExceeded through the AbortError wrapper.
func TestRowAndBuildBudgets(t *testing.T) {
	eng := slowDB()

	_, err := eng.Query(slowJoinQuery, Options{
		Joins: planner.ImplHash, Limits: Limits{MaxRows: 3},
	})
	var be *exec.BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("want rows BudgetError, got %v", err)
	}
	if !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Fatalf("budget abort must match ErrBudgetExceeded: %v", err)
	}
	var ab *AbortError
	if !errors.As(err, &ab) || ab.PartialRows < 3 {
		t.Fatalf("row-budget abort must report the partial rows discarded, got %+v", ab)
	}

	_, err = eng.Query(slowJoinQuery, Options{
		Joins: planner.ImplHash, Limits: Limits{MaxBuildBytes: 128},
	})
	if !errors.As(err, &be) || be.Resource != "build_bytes" {
		t.Fatalf("want build_bytes BudgetError, got %v", err)
	}
	if !errors.As(err, &ab) || ab.PartialBuildBytes <= 0 {
		t.Fatalf("build-budget abort must report the partial build bytes, got %+v", ab)
	}
}

// TestGovernorChargesDistinctRootRows: a root projection over a join repeats
// rows (many X ⋈ Z pairs share x.b), and the row budget is charged the rows
// the result keeps, not the pairs the join emits: a budget of exactly the
// distinct rows passes under every join family, one row less trips.
func TestGovernorChargesDistinctRootRows(t *testing.T) {
	eng := slowDB()
	const q = `SELECT x.b FROM X x, Z z WHERE x.b = z.d`
	want, err := eng.Query(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	xs, _ := eng.DB().Table("X")
	zs, _ := eng.DB().Table("Z")
	for _, x := range xs.Rows() {
		for _, z := range zs.Rows() {
			if value.Equal(x.MustGet("b"), z.MustGet("d")) {
				pairs++
			}
		}
	}
	n := int64(want.Value.Len())
	if n == 0 || int64(pairs) <= n {
		t.Fatalf("%d join pairs for %d distinct rows: the root repeats nothing", pairs, n)
	}
	for _, impl := range []planner.JoinImpl{planner.ImplAuto, planner.ImplNestedLoop, planner.ImplHash} {
		res, err := eng.Query(q, Options{Joins: impl, Limits: Limits{MaxRows: n}})
		if err != nil {
			t.Fatalf("%s: MaxRows at the %d distinct rows: %v", impl, n, err)
		}
		if !value.Equal(res.Value, want.Value) {
			t.Errorf("%s: the result differs from auto's", impl)
		}
		_, err = eng.Query(q, Options{Joins: impl, Limits: Limits{MaxRows: n - 1}})
		var be *exec.BudgetError
		if !errors.As(err, &be) || be.Resource != "rows" || be.Used != n {
			t.Errorf("%s: MaxRows one below the %d distinct rows: want a rows budget error at %d, got %v", impl, n, n, err)
		}
	}
}

// TestPanicIsolation injects a panic into the hash build: the engine must
// convert it into a typed *PanicError (with a stack), stay alive, and answer
// the same query correctly once faults are off.
func TestPanicIsolation(t *testing.T) {
	eng := slowDB()
	golden, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash})
	if err != nil {
		t.Fatal(err)
	}

	coldMemos(eng)
	base := runtime.NumGoroutine()
	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 3,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointHashBuild, Kind: faultinject.Panic, OneInN: 10},
		},
	})
	// The build point fires per row, so the 1-in-10 fault sees per-row hit
	// ordinals.
	_, err = eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash})
	deactivate()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Stack == "" {
		t.Fatal("PanicError must carry the recovery stack")
	}
	if _, ok := pe.Val.(*faultinject.InjectedPanic); !ok {
		t.Fatalf("recovered value is %T, want *faultinject.InjectedPanic", pe.Val)
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

// TestInjectedErrorSurfacesTyped pins that an injected scan error reaches the
// caller still matchable with errors.As — the chaos suite's taxonomy relies
// on it.
func TestInjectedErrorSurfacesTyped(t *testing.T) {
	eng := slowDB()
	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 4,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointScan, Kind: faultinject.Error, OneInN: 10},
		},
	})
	defer deactivate()
	_, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash})
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("want *faultinject.InjectedError, got %v", err)
	}
}

// TestLimitsShareCachedPlans pins that Limits are excluded from the plan
// cache key: the same query under different budgets reuses the cached plan.
func TestLimitsShareCachedPlans(t *testing.T) {
	eng := slowDB()
	if _, err := eng.Query(slowJoinQuery, Options{Joins: planner.ImplHash}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(slowJoinQuery, Options{
		Joins: planner.ImplHash, Limits: Limits{Timeout: time.Minute, MaxRows: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("query with limits missed the plan cache; limits must not key plans")
	}
}
