package main

import (
	"fmt"
	"sort"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json repeats name, unit and
// direction and adds the regression bound; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the server sees, measured over the timed
// window with tracing off. Every one is defined and non-zero on every workload;
// the write latencies and failed_share, which are not, live in perLayer.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p95_ms", "ms", "lower"},
	{"alloc_kb_per_op", "KiB/op", "lower"},
	{"live_heap_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// opClasses are the 14 op classes of the four workloads.
var opClasses = func() []string {
	seen := make(map[string]bool)
	var out []string
	for _, w := range workloads {
		for _, m := range w.mix {
			if !seen[m.class] {
				seen[m.class] = true
				out = append(out, m.class)
			}
		}
	}
	sort.Strings(out)
	return out
}()

// perLayer are the metrics of single layers. Times and ratios come from the
// traced run unless the glossary in README.md says otherwise; a metric that
// does not apply to a workload reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"write_p50_ms", "ms", "lower"},
		{"write_p95_ms", "ms", "lower"},
		{"failed_share", "ratio", "lower"},
		{"tmql.parse_us", "us", "lower"},
		{"tmql.bind_us", "us", "lower"},
		{"core.translate_us", "us", "lower"},
		{"planner.self_us", "us", "lower"},
		{"planner.candidates_per_miss", "count", "lower"},
		{"engine.plan_hit_us", "us", "lower"},
		{"engine.plan_cache_hit_ratio", "ratio", "higher"},
		{"engine.invalidations_per_write", "count", "lower"},
		{"stats.collect_us", "us", "lower"},
		{"stats.recollects_per_kop", "count", "lower"},
		{"exec.run_us", "us", "lower"},
		{"exec.eval_steps_per_op", "count", "lower"},
		{"exec.rows_per_op", "count", "lower"},
		{"exec.allocs_per_op", "count", "lower"},
		{"exec.alloc_kb_per_op", "KiB/op", "lower"},
		{"exec.morsels_per_op", "count", "lower"},
		{"exec.steal_ratio", "ratio", "lower"},
		{"exec.busy_share", "ratio", "higher"},
		{"value.encode_us", "us", "lower"},
		{"value.encode_kb_per_op", "KiB/op", "lower"},
		{"value.encode_ns_per_kb", "ns/KiB", "lower"},
		{"storage.insert_us", "us", "lower"},
		{"storage.delete_us", "us", "lower"},
		{"storage.rows_live_end", "count", "lower"},
		{"storage.load_ms", "ms", "lower"},
		{"storage.index_build_ms", "ms", "lower"},
		{"server.request_us", "us", "lower"},
		{"server.self_us", "us", "lower"},
		{"server.response_kb_per_op", "KiB/op", "lower"},
		{"server.admitted", "count", "higher"},
		{"server.queue_timeouts", "count", "lower"},
		{"trace.overhead_ratio", "ratio", "lower"},
	}
	for _, l := range layerNames {
		defs = append(defs, metricDef{"share." + l, "ratio", "lower"})
	}
	for _, c := range opClasses {
		defs = append(defs,
			metricDef{"op." + c + ".p50_ms", "ms", "lower"},
			metricDef{"op." + c + ".p99_ms", "ms", "lower"})
	}
	return defs
}()

// exactCounts are the per-layer metrics that are machine-independent counts:
// two runs of one build on one seed must agree on them exactly.
var exactCounts = []string{
	"planner.candidates_per_miss",
	"stats.recollects_per_kop",
	"exec.eval_steps_per_op",
	"exec.rows_per_op",
}

// layerMetrics derives the per-layer metrics from the traced run, the untraced
// window's samples, the window's /stats delta and its read_p50_ms.
func layerMetrics(run *tracedRun, rec *recorder, c serverCounters, readP50Ms float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}

	writes := rec.gather(isWriteClass)
	m["write_p50_ms"] = ms(percentile(writes, 0.50))
	m["write_p95_ms"] = ms(percentile(writes, 0.95))
	for class, ds := range rec.lat {
		m["op."+class+".p50_ms"] = ms(percentile(ds, 0.50))
		m["op."+class+".p99_ms"] = ms(percentile(ds, 0.99))
	}
	m["engine.plan_cache_hit_ratio"] = ratio(float64(c.hits), float64(c.hits+c.misses))
	m["engine.invalidations_per_write"] = ratio(float64(c.invalidations), float64(c.writes))
	m["server.admitted"] = float64(c.admitted)
	m["server.queue_timeouts"] = float64(c.queueTimeouts)

	// Span medians, in microseconds.
	byName := make(map[string][]float64)
	var hitUs []float64
	for _, s := range run.spans {
		if s.Name == spanPlan {
			if s.Hit {
				hitUs = append(hitUs, us(s.dur()))
			}
			continue
		}
		byName[s.Name] = append(byName[s.Name], us(s.dur()))
	}
	m["tmql.parse_us"] = medianFloat(byName[spanParse])
	m["tmql.bind_us"] = medianFloat(byName[spanBind])
	m["core.translate_us"] = medianFloat(byName[spanTranslate])
	m["engine.plan_hit_us"] = medianFloat(hitUs)
	m["value.encode_us"] = medianFloat(byName[spanEncode])
	m["storage.insert_us"] = medianFloat(byName[spanInsert])
	m["storage.delete_us"] = medianFloat(byName[spanDelete])
	m["server.request_us"] = medianFloat(byName[spanRequest])

	var plannerUs, recollectUs, runUs, serverUs, readWireMs []float64
	serverByClass := make(map[string][]float64)
	self := make(map[string]time.Duration)
	var reads, misses, candidates, recollects int
	var steps, morsels, stolen int64
	var rows, respBytes, encoded int
	var mallocs, allocBytes uint64
	var busy, capacity time.Duration
	for _, t := range run.ops {
		respBytes += t.respBytes
		for layer, d := range t.self {
			self[layer] += d
		}
		overhead := us(t.wire - t.libTotal)
		serverUs = append(serverUs, overhead)
		serverByClass[t.class] = append(serverByClass[t.class], overhead)
		if isWriteClass(t.class) {
			continue
		}
		reads++
		readWireMs = append(readWireMs, ms(t.wire))
		if t.miss {
			misses++
			candidates += t.candidates
			plannerUs = append(plannerUs, us(t.self["planner"]))
		}
		if t.recollects > 0 {
			recollects += t.recollects
			recollectUs = append(recollectUs, us(t.self["stats"]))
		}
		runUs = append(runUs, us(t.self["exec"]))
		steps += t.evalSteps
		rows += t.rows
		mallocs += t.mallocs
		allocBytes += t.allocBytes
		morsels += t.morsels
		stolen += t.stolen
		encoded += t.encoded
		if t.degree > 1 {
			busy += t.busy
			capacity += t.self["exec"] * time.Duration(t.degree)
		}
	}
	nOps, nReads := float64(len(run.ops)), float64(reads)
	m["planner.self_us"] = medianFloat(plannerUs)
	m["planner.candidates_per_miss"] = ratio(float64(candidates), float64(misses))
	m["stats.collect_us"] = medianFloat(recollectUs)
	m["stats.recollects_per_kop"] = 1000 * float64(recollects) / nOps
	m["exec.run_us"] = medianFloat(runUs)
	m["exec.eval_steps_per_op"] = ratio(float64(steps), nReads)
	m["exec.rows_per_op"] = ratio(float64(rows), nReads)
	m["exec.allocs_per_op"] = ratio(float64(mallocs), nReads)
	m["exec.alloc_kb_per_op"] = ratio(float64(allocBytes)/1024, nReads)
	m["exec.morsels_per_op"] = ratio(float64(morsels), nReads)
	m["exec.steal_ratio"] = ratio(float64(stolen), float64(morsels))
	m["exec.busy_share"] = ratio(float64(busy), float64(capacity))
	m["value.encode_kb_per_op"] = ratio(float64(encoded)/1024, nReads)
	m["value.encode_ns_per_kb"] = ratio(float64(self["value"]), float64(encoded)/1024)
	m["server.self_us"] = medianFloat(serverUs)
	m["server.response_kb_per_op"] = float64(respBytes) / 1024 / nOps
	m["trace.overhead_ratio"] = ratio(medianFloat(readWireMs), readP50Ms)

	// The layer budget: each layer's share of the summed self times. The
	// server's self time is what the library pass does not account for: per
	// class, the median over ops of wire minus library time, times the class's
	// ops. A difference of totals would drown it in the run-to-run noise of
	// the millisecond-long ops.
	for _, overheads := range serverByClass {
		perOp := max(medianFloat(overheads), 0) * float64(time.Microsecond)
		self["server"] += time.Duration(perOp) * time.Duration(len(overheads))
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, layer := range layerNames {
		m["share."+layer] = ratio(float64(self[layer]), float64(total))
	}
	return m
}

// ms and us are d in milliseconds and in microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dominanceWarning reports when the layers the design expects to dominate a
// workload do not hold the largest share of the layer budget.
func dominanceWarning(w *workload, m map[string]float64) string {
	expected := make(map[string]bool)
	sum := 0.0
	for _, l := range w.dominant {
		expected[l] = true
		sum += m["share."+l]
	}
	for _, l := range layerNames {
		if !expected[l] && m["share."+l] > sum {
			return fmt.Sprintf("%s: share.%s = %.3f exceeds the expected dominant %v = %.3f",
				w.name, l, m["share."+l], w.dominant, sum)
		}
	}
	return ""
}
