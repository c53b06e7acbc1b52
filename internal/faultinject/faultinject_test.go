package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// trigger runs n hits against a fresh schedule and returns the ordinals that
// drew an error.
func trigger(seed, oneInN uint64, point string, n int) []uint64 {
	defer Activate(Schedule{Seed: seed, Rules: []Rule{
		{Point: point, Kind: Error, OneInN: oneInN},
	}})()
	var hits []uint64
	for i := 0; i < n; i++ {
		if err := Hit(point); err != nil {
			var ie *InjectedError
			if !errors.As(err, &ie) {
				panic("non-injected error from Hit")
			}
			hits = append(hits, ie.Hit)
		}
	}
	return hits
}

// TestDeterminism pins the core contract: for a fixed (seed, point, rule) the
// triggering hit ordinals are identical across activations, different seeds
// draw different ordinals, and OneInN=1 triggers every hit.
func TestDeterminism(t *testing.T) {
	a := trigger(42, 10, PointScan, 1000)
	b := trigger(42, 10, PointScan, 1000)
	if len(a) == 0 {
		t.Fatal("1-in-10 rule never triggered in 1000 hits")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different trigger counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, ordinal %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	c := trigger(43, 10, PointScan, 1000)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical trigger ordinals")
		}
	}
	if every := trigger(1, 1, PointHashBuild, 50); len(every) != 50 {
		t.Fatalf("OneInN=1 triggered %d of 50 hits", len(every))
	}
}

// TestInactiveFastPath pins that Hit is a no-op with no armed schedule and
// with a schedule that names a different point.
func TestInactiveFastPath(t *testing.T) {
	if Enabled() {
		t.Fatal("schedule armed at test start")
	}
	if err := Hit(PointScan); err != nil {
		t.Fatalf("unarmed Hit returned %v", err)
	}
	deactivate := Activate(Schedule{Seed: 9, Rules: []Rule{{Point: PointSortBuild, Kind: Error, OneInN: 1}}})
	if !Enabled() {
		t.Fatal("Enabled false after Activate")
	}
	if err := Hit(PointScan); err != nil {
		t.Fatalf("Hit on un-ruled point returned %v", err)
	}
	deactivate()
	if Enabled() {
		t.Fatal("deactivator did not disarm")
	}
	// A stale deactivator must not disarm a newer schedule.
	d1 := Activate(Schedule{Seed: 1, Rules: []Rule{{Point: PointScan, Kind: Error, OneInN: 1}}})
	d2 := Activate(Schedule{Seed: 2, Rules: []Rule{{Point: PointScan, Kind: Error, OneInN: 1}}})
	d1()
	if !Enabled() {
		t.Fatal("stale deactivator disarmed the newer schedule")
	}
	d2()
}

// TestDelayAndPanicKinds exercises the two non-error kinds.
func TestDelayAndPanicKinds(t *testing.T) {
	defer Activate(Schedule{Seed: 5, Rules: []Rule{
		{Point: PointScan, Kind: Delay, OneInN: 1, Delay: 5 * time.Millisecond},
	}})()
	start := time.Now()
	if err := Hit(PointScan); err != nil {
		t.Fatalf("Delay rule returned error %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("Delay rule slept %v, want >= 5ms", d)
	}

	defer Activate(Schedule{Seed: 5, Rules: []Rule{
		{Point: PointHashProbe, Kind: Panic, OneInN: 1},
	}})()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Panic rule did not panic")
		}
		if _, ok := p.(*InjectedPanic); !ok {
			t.Fatalf("panicked with %T, want *InjectedPanic", p)
		}
	}()
	_ = Hit(PointHashProbe)
}

// TestConcurrentHits hammers one schedule from many goroutines: the per-point
// hit counter must account for every hit exactly once (run under -race this
// also sweeps the atomics).
func TestConcurrentHits(t *testing.T) {
	defer Activate(Schedule{Seed: 11, Rules: []Rule{
		{Point: PointHashProbe, Kind: Error, OneInN: 1 << 62},
	}})()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = Hit(PointHashProbe)
			}
		}()
	}
	wg.Wait()
	st := active.Load()
	if got := st.hits[PointHashProbe].Load(); got != workers*per {
		t.Fatalf("hit counter %d, want %d", got, workers*per)
	}
}

// TestPointsRegistry pins the registry the docs table documents.
func TestPointsRegistry(t *testing.T) {
	want := map[string]bool{
		PointScan: true, PointHashBuild: true, PointHashProbe: true,
		PointSortBuild: true, PointMutationEpoch: true,
	}
	pts := Points()
	if len(pts) != len(want) {
		t.Fatalf("Points() returned %d entries, want %d", len(pts), len(want))
	}
	for _, p := range pts {
		if !want[p] {
			t.Fatalf("unregistered point %q", p)
		}
	}
}

// Enabled reports whether a schedule is armed.
func Enabled() bool { return active.Load() != nil }

// Points returns the registry of fault points, in documentation order.
func Points() []string {
	return []string{
		PointScan, PointHashBuild, PointHashProbe, PointSortBuild, PointMutationEpoch,
	}
}
