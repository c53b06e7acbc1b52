// Package faultinject is a deterministic, seed-addressable fault-injection
// harness for the execution pipeline. Operators and mutation entry points
// call Hit at registered fault points; when a Schedule is active, each hit is
// hashed — seed × point × per-point hit ordinal — into a deterministic
// decision to inject a delay, a typed error, or a panic. With no active
// schedule a hit is a single atomic pointer load, so production and benchmark
// paths pay effectively nothing.
//
// Determinism contract: for a fixed seed and rule set, the set of hit
// ordinals that trigger at each point is a pure function of (seed, point,
// ordinal). Under concurrent queries the interleaving decides which query
// draws a triggering ordinal, but the number of injected faults per point is
// reproducible whenever the per-point hit count is.
package faultinject

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Registered fault points. The names are stable API: tests address them in
// schedules and the ARCHITECTURE.md registry documents them.
const (
	// PointScan fires once per batch leaving a table scan (exec.TableScan),
	// whole or narrowed to a range or to index buckets.
	PointScan = "scan.next"
	// PointHashBuild fires once per right-input row entering the table of a
	// hash join (exec.Join with the JoinHash method), and, for an execution
	// that a table kept in a snapshot memo serves instead, once per build
	// site the table's fill passed.
	PointHashBuild = "hash.build"
	// PointHashProbe fires once per left row probed by exec.Join, whatever
	// its method: hash table, persistent index, nested loops or sort-merge.
	PointHashProbe = "hash.probe"
	// PointSortBuild fires once per input batch drained into a sorted run of
	// a sort-merge join (exec.Join with the JoinMerge method).
	PointSortBuild = "sort.build"
	// PointMutationEpoch fires once per engine-level mutation that advances a
	// table epoch (insert, delete, index creation).
	PointMutationEpoch = "mutation.epoch"
)

// Kind is the action a triggered rule takes.
type Kind int

const (
	// Delay sleeps Rule.Delay, simulating a slow device or a stalled operator.
	Delay Kind = iota
	// Error returns an *InjectedError from the fault point.
	Error
	// Panic panics with an *InjectedPanic from the fault point.
	Panic
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Delay:
		return "delay"
	case Error:
		return "error"
	case Panic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule triggers Kind at Point on roughly one in OneInN hits (exactly the
// hits whose deterministic hash lands in the 1/OneInN band; OneInN = 1
// triggers every hit).
type Rule struct {
	Point  string
	Kind   Kind
	OneInN uint64
	// Delay is the sleep duration for Kind == Delay.
	Delay time.Duration
}

// Schedule is a full fault configuration: a seed addressing the
// deterministic hash and the rules to arm.
type Schedule struct {
	Seed  uint64
	Rules []Rule
}

// InjectedError is the error returned by a triggered Error rule. Chaos tests
// match it with errors.As to distinguish injected faults from genuine bugs.
type InjectedError struct {
	Point string
	Hit   uint64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected error at %s (hit %d)", e.Point, e.Hit)
}

// InjectedPanic is the value a triggered Panic rule panics with.
type InjectedPanic struct {
	Point string
	Hit   uint64
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (hit %d)", p.Point, p.Hit)
}

// state is one armed schedule. Immutable after construction; hit counters
// are per-point atomics.
type state struct {
	seed  uint64
	rules map[string][]Rule
	hits  map[string]*atomic.Uint64
}

// active is the armed schedule, nil when fault injection is off. The nil
// check in Hit is the production fast path.
var active atomic.Pointer[state]

// Activate arms the schedule and returns its deactivator. Schedules do not
// stack: activating replaces any armed schedule; the deactivator disarms
// only if its own schedule is still the armed one. Intended for tests
// (defer Activate(s)()).
func Activate(s Schedule) (deactivate func()) {
	st := &state{
		seed:  s.Seed,
		rules: make(map[string][]Rule, len(s.Rules)),
		hits:  make(map[string]*atomic.Uint64, len(s.Rules)),
	}
	for _, r := range s.Rules {
		if r.OneInN == 0 {
			r.OneInN = 1
		}
		st.rules[r.Point] = append(st.rules[r.Point], r)
		if st.hits[r.Point] == nil {
			st.hits[r.Point] = new(atomic.Uint64)
		}
	}
	active.Store(st)
	return func() { active.CompareAndSwap(st, nil) }
}

// Hit records one pass through the named fault point and applies any
// triggered rule: Delay sleeps and returns nil, Error returns an
// *InjectedError, Panic panics with an *InjectedPanic. With no armed
// schedule (or no rule for the point) it returns nil after one atomic load.
func Hit(point string) error {
	st := active.Load()
	if st == nil {
		return nil
	}
	rules := st.rules[point]
	if len(rules) == 0 {
		return nil
	}
	n := st.hits[point].Add(1)
	for _, r := range rules {
		if splitmix64(st.seed^hashPoint(point)^n)%r.OneInN != 0 {
			continue
		}
		switch r.Kind {
		case Delay:
			time.Sleep(r.Delay)
		case Error:
			return &InjectedError{Point: point, Hit: n}
		case Panic:
			panic(&InjectedPanic{Point: point, Hit: n})
		}
	}
	return nil
}

// hashPoint gives each point a stable 64-bit identity (FNV-1a).
func hashPoint(p string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix, so
// consecutive hit ordinals decorrelate fully.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
