package stats

import (
	"hash/fnv"
	"math"
	"slices"
	"sort"

	"tmdb/internal/value"
)

// Approximate statistics: equi-depth histograms for per-attribute value
// distributions and a KMV (k-minimum-values) sketch for distinct counts.
// Together they replace the exact per-attribute key sets for tables above the
// catalog's exact threshold: memory per attribute drops from O(distinct) to
// O(buckets + k), and every figure the cost model consumes — equality and
// range selectivity, NDV, dangling fractions — becomes an estimate with
// bounded relative error instead of an exact scan artifact. Tiny tables keep
// the exact path (see Catalog), which the estimator tests use as ground
// truth.

// defaultBuckets is the equi-depth bucket count. 32 buckets resolve ~3% rank
// quantiles, plenty for join-order and rewrite choices.
const defaultBuckets = 32

// sketchK is the KMV sketch size: the standard error of the NDV estimate is
// about 1/sqrt(k-1) ≈ 6% at 256.
const sketchK = 256

// histogramSampleCap bounds how many values per attribute the histogram
// builder buffers: larger tables feed it a deterministic row stride instead
// of every row, keeping statistics collection memory O(cap) per attribute.
const histogramSampleCap = 1 << 16

// Bucket is one equi-depth histogram bucket over the closed value interval
// [Lo, Hi] in the value.Compare order.
type Bucket struct {
	Lo, Hi value.Value
	// Count is the number of rows whose value falls in the bucket.
	Count int
	// Distinct is the number of distinct values in the bucket.
	Distinct int
}

// Histogram is an equi-depth histogram over one attribute's scalar values.
// Buckets are ordered and contiguous in value.Compare order; Total counts the
// rows contributing a scalar value (set- and tuple-valued attributes are not
// histogrammed).
type Histogram struct {
	Buckets []Bucket
	Total   int
}

// buildHistogram sorts vals in place and splits them into at most nb
// equi-depth buckets. nil is returned for empty input.
func buildHistogram(vals []value.Value, nb int) *Histogram {
	if len(vals) == 0 {
		return nil
	}
	slices.SortFunc(vals, value.Compare)
	if nb < 1 {
		nb = 1
	}
	depth := (len(vals) + nb - 1) / nb
	h := &Histogram{Total: len(vals)}
	for start := 0; start < len(vals); {
		end := start + depth
		if end > len(vals) {
			end = len(vals)
		}
		// Never split a run of equal values across buckets: extend the bucket
		// to the end of the run so EstimateEq sees each value exactly once.
		for end < len(vals) && value.Equal(vals[end-1], vals[end]) {
			end++
		}
		b := Bucket{Lo: vals[start], Hi: vals[end-1], Count: end - start, Distinct: 1}
		for i := start + 1; i < end; i++ {
			if !value.Equal(vals[i-1], vals[i]) {
				b.Distinct++
			}
		}
		h.Buckets = append(h.Buckets, b)
		start = end
	}
	return h
}

// find returns the index of the bucket whose interval contains v, or -1.
func (h *Histogram) find(v value.Value) int {
	if h == nil || len(h.Buckets) == 0 {
		return -1
	}
	// First bucket whose Hi >= v.
	i := sort.Search(len(h.Buckets), func(i int) bool {
		return value.Compare(h.Buckets[i].Hi, v) >= 0
	})
	if i == len(h.Buckets) || value.Less(v, h.Buckets[i].Lo) {
		return -1
	}
	return i
}

// EstimateEq estimates the fraction of rows whose value equals v: the
// containing bucket's average frequency per distinct value, 0 when v falls
// outside every bucket. A nil histogram reports -1 (unknown).
func (h *Histogram) EstimateEq(v value.Value) float64 {
	if h == nil || h.Total == 0 {
		return -1
	}
	i := h.find(v)
	if i < 0 {
		return 0
	}
	b := h.Buckets[i]
	if b.Distinct == 0 {
		return 0
	}
	return float64(b.Count) / float64(b.Distinct) / float64(h.Total)
}

// EstimateLess estimates the fraction of rows with value < v (strict) using
// linear interpolation inside the containing bucket. A nil histogram reports
// -1 (unknown).
func (h *Histogram) EstimateLess(v value.Value) float64 {
	if h == nil || h.Total == 0 {
		return -1
	}
	rows := 0.0
	for _, b := range h.Buckets {
		switch {
		case value.Compare(b.Hi, v) < 0:
			rows += float64(b.Count)
		case value.Compare(v, b.Lo) <= 0:
			return rows / float64(h.Total)
		default:
			rows += float64(b.Count) * interpolate(b.Lo, b.Hi, v)
			return rows / float64(h.Total)
		}
	}
	return rows / float64(h.Total)
}

// DistinctInRange estimates how many distinct values the histogram holds in
// the closed interval [lo, hi]. Fully covered buckets contribute their whole
// distinct count; partially covered buckets interpolate (integer-aware, so a
// one-value slice of an integer bucket counts one value, not a continuous
// sliver), with a floor for bucket boundary values — which are always actual
// data values — falling inside the query range.
func (h *Histogram) DistinctInRange(lo, hi value.Value) float64 {
	if h == nil || value.Less(hi, lo) {
		return 0
	}
	total := 0.0
	for _, b := range h.Buckets {
		if value.Less(b.Hi, lo) || value.Less(hi, b.Lo) {
			continue
		}
		frac := 1.0
		if value.Less(b.Lo, lo) || value.Less(hi, b.Hi) {
			frac = coverFrac(b, lo, hi)
			// b.Lo and b.Hi are actual data values: each one inside [lo, hi]
			// is at least one covered distinct value, however narrow the
			// interpolated sliver.
			hits := 0
			if value.Compare(lo, b.Lo) <= 0 && value.Compare(b.Lo, hi) <= 0 {
				hits++
			}
			if b.Distinct > 1 && value.Compare(lo, b.Hi) <= 0 && value.Compare(b.Hi, hi) <= 0 {
				hits++
			}
			if floor := float64(hits) / float64(b.Distinct); frac < floor {
				frac = floor
			}
			if frac > 1 {
				frac = 1
			}
		}
		total += float64(b.Distinct) * frac
	}
	return total
}

// coverFrac estimates the fraction of bucket b's values covered by the
// closed interval [lo, hi]. Integer buckets use closed-interval arithmetic
// over the bucket's width+1 discrete slots; other numerics use continuous
// interpolation; non-numeric partial overlap falls back to one half.
func coverFrac(b Bucket, lo, hi value.Value) float64 {
	bl, blok := numeric(b.Lo)
	bh, bhok := numeric(b.Hi)
	lf, lok := numeric(lo)
	hf, hok := numeric(hi)
	if !(blok && bhok && lok && hok) || bh < bl {
		return 0.5
	}
	if b.Lo.Kind() == value.KindInt && b.Hi.Kind() == value.KindInt {
		width := bh - bl + 1
		upTo := math.Min(width, math.Floor(hf)-bl+1) // values <= hi
		below := math.Max(0, math.Ceil(lf)-bl)       // values < lo
		return math.Max(0, math.Min(1, (upTo-below)/width))
	}
	if bh == bl {
		return 1
	}
	f := func(v float64) float64 { return math.Max(0, math.Min(1, (v-bl)/(bh-bl))) }
	return math.Max(0, f(hf)-f(lf))
}

// interpolate estimates the relative position of v inside [lo, hi]:
// numerically for int/float bounds, 0.5 otherwise. The result is the
// estimated fraction of the interval strictly below v.
func interpolate(lo, hi, v value.Value) float64 {
	lf, lok := numeric(lo)
	hf, hok := numeric(hi)
	vf, vok := numeric(v)
	if lok && hok && vok && hf > lf {
		f := (vf - lf) / (hf - lf)
		if f < 0 {
			return 0
		}
		if f > 1 {
			return 1
		}
		return f
	}
	if value.Compare(v, lo) <= 0 {
		return 0
	}
	if value.Compare(v, hi) > 0 {
		return 1
	}
	return 0.5
}

func numeric(v value.Value) (float64, bool) {
	switch v.Kind() {
	case value.KindInt:
		return float64(v.AsInt()), true
	case value.KindFloat:
		return v.AsFloat(), true
	}
	return 0, false
}

// distinctSketch is a KMV (k-minimum-values) distinct-count sketch: it keeps
// the k smallest 64-bit hashes seen; the (k-1)/R estimator with R the k-th
// smallest normalized hash gives NDV with ~1/sqrt(k-1) standard error. Below
// k values the count is exact.
type distinctSketch struct {
	k    int
	seen map[uint64]bool
	// mins is a max-heap-free sorted-insert small slice: k is small (256), and
	// inserts beyond the k-th largest are rejected by a single comparison, so
	// the simple implementation is fine at scan time.
	mins []uint64
}

func newDistinctSketch(k int) *distinctSketch {
	return &distinctSketch{k: k, seen: make(map[uint64]bool, k)}
}

// Add feeds one value key into the sketch.
func (s *distinctSketch) Add(key string) {
	h := fnv.New64a()
	h.Write([]byte(key))
	// FNV alone is visibly non-uniform on short sequential keys, which biases
	// the order statistics KMV relies on; a splitmix64-style finalizer fixes
	// the avalanche.
	hv := mix64(h.Sum64())
	if s.seen[hv] {
		return
	}
	if len(s.mins) == s.k {
		if hv >= s.mins[len(s.mins)-1] {
			return
		}
		delete(s.seen, s.mins[len(s.mins)-1])
		s.mins = s.mins[:len(s.mins)-1]
	}
	i := sort.Search(len(s.mins), func(i int) bool { return s.mins[i] >= hv })
	s.mins = append(s.mins, 0)
	copy(s.mins[i+1:], s.mins[i:])
	s.mins[i] = hv
	s.seen[hv] = true
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Estimate returns the estimated number of distinct values added.
func (s *distinctSketch) Estimate() int {
	if len(s.mins) < s.k {
		return len(s.mins) // exact below capacity
	}
	r := float64(s.mins[s.k-1]) / float64(math.MaxUint64)
	if r <= 0 {
		return len(s.mins)
	}
	return int(float64(s.k-1) / r)
}
