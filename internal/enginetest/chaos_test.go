package enginetest

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tmdb/internal/engine"
	"tmdb/internal/faultinject"
)

// chaosSeeds is the fixed seed matrix the CI chaos job runs: each seed
// expands deterministically into a fault schedule, so a failure reproduces
// with `go test -run TestChaosGoldens/seed=<n>`.
var chaosSeeds = []uint64{1, 7, 42, 1337}

// chaosSchedule expands a seed into a randomized-but-deterministic fault
// schedule: one to three rules over the execution fault points, mixing
// delays, typed errors, and panics at moderate trigger rates.
func chaosSchedule(seed uint64) faultinject.Schedule {
	r := rand.New(rand.NewSource(int64(seed)))
	points := []string{
		faultinject.PointScan, faultinject.PointHashBuild, faultinject.PointHashProbe,
		faultinject.PointSortBuild,
	}
	kinds := []faultinject.Kind{faultinject.Delay, faultinject.Error, faultinject.Panic}
	n := 1 + r.Intn(3)
	rules := make([]faultinject.Rule, 0, n)
	for i := 0; i < n; i++ {
		rules = append(rules, faultinject.Rule{
			Point:  points[r.Intn(len(points))],
			Kind:   kinds[r.Intn(len(kinds))],
			OneInN: uint64(20 + r.Intn(200)),
			Delay:  time.Duration(r.Intn(200)) * time.Microsecond,
		})
	}
	return faultinject.Schedule{Seed: seed, Rules: rules}
}

// chaosTaxonomy reports whether a failed chaos run died inside the documented
// error taxonomy: an injected typed error, an isolated injected panic, or the
// harness's known planner skip. Anything else is a genuine bug surfaced by
// the fault schedule.
func chaosTaxonomy(err error) bool {
	var ie *faultinject.InjectedError
	if errors.As(err, &ie) {
		return true
	}
	var pe *engine.PanicError
	if errors.As(err, &pe) {
		_, ok := pe.Val.(*faultinject.InjectedPanic)
		return ok
	}
	return SkippableError(err)
}

// TestChaosGoldens runs the conformance goldens under randomized fault
// schedules (fixed seed matrix) and asserts
// the PR's chaos contract: when a query survives the faults its result is
// byte-identical to the fault-free oracle; when it fails, the error is inside
// the documented taxonomy; and no run leaks goroutines. A final fault-free
// sweep proves the storm left the engines uncorrupted.
func TestChaosGoldens(t *testing.T) {
	optCombos := []struct {
		name string
		opts engine.Options
	}{
		{"auto", engine.Options{}},
	}

	engines := map[string]*engine.Engine{}
	for _, g := range Goldens {
		if engines[g.DB] == nil {
			engines[g.DB] = OpenDB(g.DB)
		}
	}
	oracles := map[string]string{}
	for _, g := range Goldens {
		for _, oc := range optCombos {
			res, err := engines[g.DB].Query(g.Query, oc.opts)
			if err != nil {
				t.Fatalf("fault-free oracle %s/%s: %v", g.Name, oc.name, err)
			}
			oracles[g.Name+"/"+oc.name] = res.Value.String()
		}
	}

	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base := runtime.NumGoroutine()
			schedule := chaosSchedule(seed)
			for _, g := range Goldens {
				for _, oc := range optCombos {
					deactivate := faultinject.Activate(schedule)
					res, err := engines[g.DB].Query(g.Query, oc.opts)
					deactivate()
					switch {
					case err == nil:
						if got := res.Value.String(); got != oracles[g.Name+"/"+oc.name] {
							t.Errorf("%s/%s: survived faults but diverged from oracle:\nwant %s\ngot  %s",
								g.Name, oc.name, oracles[g.Name+"/"+oc.name], got)
						}
					case !chaosTaxonomy(err):
						t.Errorf("%s/%s: failed outside the documented taxonomy: %v", g.Name, oc.name, err)
					}
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) && runtime.NumGoroutine() > base+2 {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base+2 {
				t.Fatalf("goroutine leak under seed %d: %d at start, %d now", seed, base, n)
			}
		})
	}

	for _, g := range Goldens {
		for _, oc := range optCombos {
			res, err := engines[g.DB].Query(g.Query, oc.opts)
			if err != nil {
				t.Fatalf("post-chaos %s/%s: %v", g.Name, oc.name, err)
			}
			if got := res.Value.String(); got != oracles[g.Name+"/"+oc.name] {
				t.Fatalf("post-chaos %s/%s diverged from oracle", g.Name, oc.name)
			}
		}
	}
}

// TestChaosGovernedGoldens layers budgets and deadlines on top of fault
// schedules: every golden runs with a generous deadline and row budget under
// an error-heavy schedule, asserting that whatever abort wins is still a
// typed, documented one.
func TestChaosGovernedGoldens(t *testing.T) {
	engines := map[string]*engine.Engine{}
	for _, g := range Goldens {
		if engines[g.DB] == nil {
			engines[g.DB] = OpenDB(g.DB)
		}
	}
	defer faultinject.Activate(faultinject.Schedule{
		Seed: 99,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointScan, Kind: faultinject.Error, OneInN: 30},
			{Point: faultinject.PointHashBuild, Kind: faultinject.Panic, OneInN: 200},
		},
	})()
	opts := engine.Options{Limits: engine.Limits{
		Timeout: 5 * time.Second, MaxRows: 1 << 20, MaxBuildBytes: 1 << 30,
	}}
	for _, g := range Goldens {
		_, err := engines[g.DB].Query(g.Query, opts)
		if err == nil {
			continue
		}
		if !chaosTaxonomy(err) {
			t.Errorf("%s: governed chaos run failed outside the taxonomy: %v", g.Name, err)
		}
		var ab *engine.AbortError
		var pe *engine.PanicError
		if errors.As(err, &pe) && !errors.As(err, &ab) {
			t.Errorf("%s: isolated panic lost its partial-work accounting: %v", g.Name, err)
		}
	}
}
