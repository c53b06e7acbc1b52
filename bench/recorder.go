package main

import (
	"math"
	"sort"
	"time"
)

// recorder keeps one client's latency samples per op class. Percentiles are
// exact: every sample is stored and sorted, nothing is bucketed.
type recorder struct {
	lat       map[string][]time.Duration
	attempted int
	failed    int
	// firstFailure describes the first failed op, for the run's report.
	firstFailure string
}

func newRecorder() *recorder { return &recorder{lat: make(map[string][]time.Duration)} }

// add records one op. A failed op contributes no latency sample: it counts as
// missing any latency limit, through failed_share.
func (r *recorder) add(class string, d time.Duration, ok bool) {
	r.attempted++
	if !ok {
		r.failed++
		return
	}
	r.lat[class] = append(r.lat[class], d)
}

// merge folds other into r.
func (r *recorder) merge(other *recorder) {
	r.attempted += other.attempted
	r.failed += other.failed
	if r.firstFailure == "" {
		r.firstFailure = other.firstFailure
	}
	for class, ds := range other.lat {
		r.lat[class] = append(r.lat[class], ds...)
	}
}

// gather returns the samples of every class keep accepts.
func (r *recorder) gather(keep func(class string) bool) []time.Duration {
	var out []time.Duration
	for class, ds := range r.lat {
		if keep(class) {
			out = append(out, ds...)
		}
	}
	return out
}

func isWriteClass(class string) bool { return class == classInsert || class == classDelete }
func isReadClass(class string) bool  { return !isWriteClass(class) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of samples:
// the smallest sample with at least p of the samples at or below it. It sorts
// samples in place and returns 0 for an empty slice.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(p * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// medianFloat returns the median of xs (the mean of the middle two for an even
// count), sorting in place, and 0 for an empty slice.
func medianFloat(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
