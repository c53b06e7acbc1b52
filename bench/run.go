package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"tmdb"
)

// setupRepeats is how many fresh set-ups a run times; setup_s is their median.
const setupRepeats = 9

// config is what one run of one workload is parameterized by.
type config struct {
	seed   int64
	ds     dataset
	warmup time.Duration
	window time.Duration
	// naiveDiv scales the replica the nested statements are checked against
	// naive evaluation on, which is O(n²–n³).
	naiveDiv int
	// traced adds the traced run and the per-layer metrics.
	traced bool
	// traceDiv divides every workload's traced-op cap (the -quick scale).
	traceDiv int
	// outDir receives <workload>.trace.json; empty writes nothing.
	outDir string
}

// report is one run of one workload.
type report struct {
	Workload  string             `json:"workload"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Samples   map[string]int     `json:"samples"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	// Problems says why Correct is false; Warnings do not fail the run.
	Problems []string `json:"problems,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
}

// count adds ops or checks the run made to the report. Any failure among them
// makes the run incorrect, and the command exit non-zero.
func (r *report) count(what string, attempted, failed int, first string) {
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d of %d %s failed, first: %s", failed, attempted, what, first))
	}
	r.Correct = r.Failed == 0
}

// serverCounters are the /stats counters whose delta over the window feeds
// per-layer metrics.
type serverCounters struct {
	hits, misses, invalidations, writes, admitted, queueTimeouts uint64
}

func readCounters(c *tmdb.Client) (serverCounters, error) {
	st, err := c.Stats()
	if err != nil {
		return serverCounters{}, fmt.Errorf("reading /stats: %w", err)
	}
	return serverCounters{
		hits: st.PlanCache.Hits, misses: st.PlanCache.Misses, invalidations: st.PlanCache.Invalidations,
		writes: st.Inserts + st.Deletes, admitted: st.Admitted, queueTimeouts: st.QueueTimeouts,
	}, nil
}

func (a serverCounters) minus(b serverCounters) serverCounters {
	return serverCounters{
		a.hits - b.hits, a.misses - b.misses, a.invalidations - b.invalidations,
		a.writes - b.writes, a.admitted - b.admitted, a.queueTimeouts - b.queueTimeouts,
	}
}

// runWorkload sets the workload up, warms it, measures the timed window with
// tracing off, checks the outputs and, when asked, adds the traced run.
func runWorkload(w *workload, cfg config) (*report, error) {
	rep := &report{Workload: w.name, EndToEnd: make(map[string]float64), Samples: make(map[string]int)}
	inst, err := newInstance(w, cfg.ds, cfg.seed)
	if err != nil {
		return nil, err
	}

	var sys *system
	var setupS, loadMs, indexMs []float64
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		if sys, err = setUp(inst, cfg.ds, cfg.seed, clients); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		loadMs, indexMs = append(loadMs, sys.loadMs), append(indexMs, sys.indexMs)
	}
	defer sys.close()
	rep.EndToEnd["setup_s"] = medianFloat(setupS)
	rep.Samples["setup_s"] = setupRepeats

	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rep.EndToEnd["live_heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	rep.Samples["live_heap_mb"] = 1

	// Correctness at set-up: the library's answer to every statement, and
	// cost-based against naive evaluation.
	orc, err := newOracle(sys.eng, inst)
	if err != nil {
		return nil, err
	}
	naiveEng := sys.eng
	if len(w.indexes) == 0 {
		replica, err := buildEngine(inst, cfg.ds.scaled(cfg.naiveDiv), cfg.seed)
		if err != nil {
			return nil, err
		}
		naiveEng = replica.eng
	}
	checkNaive := func(eng *tmdb.Engine, when string) error {
		checked, bad, first, err := naiveMismatches(eng, inst)
		rep.count("comparisons with naive evaluation "+when, checked, bad, first)
		return err
	}
	if err := checkNaive(naiveEng, "at set-up"); err != nil {
		return nil, err
	}

	targets := make([]target, clients)
	gens := make([]*opGen, clients)
	for i := range targets {
		targets[i] = wireTarget{sys.clients[i]}
		gens[i] = newOpGen(inst, cfg.seed, i)
	}
	warm, _ := runClosedLoop(targets, gens, orc.verify, cfg.warmup)
	rep.count("warm-up ops", warm.attempted, warm.failed, warm.firstFailure)

	runtime.GC()
	before, err := readCounters(sys.clients[0])
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem)
	allocBefore := mem.TotalAlloc
	rec, elapsed := runClosedLoop(targets, gens, orc.verify, cfg.window)
	runtime.ReadMemStats(&mem)
	after, err := readCounters(sys.clients[0])
	if err != nil {
		return nil, err
	}
	counters := after.minus(before)

	rep.count("ops of the timed window", rec.attempted, rec.failed, rec.firstFailure)
	done := rec.attempted - rec.failed
	if done == 0 {
		return nil, fmt.Errorf("%s: no op completed in the window", w.name)
	}
	reads := rec.gather(isReadClass)
	rep.EndToEnd["throughput_ops_s"] = float64(done) / elapsed.Seconds()
	rep.EndToEnd["read_p50_ms"] = ms(percentile(reads, 0.50))
	rep.EndToEnd["read_p95_ms"] = ms(percentile(reads, 0.95))
	rep.EndToEnd["alloc_kb_per_op"] = float64(mem.TotalAlloc-allocBefore) / 1024 / float64(done)
	rep.Samples["throughput_ops_s"], rep.Samples["alloc_kb_per_op"] = done, done
	rep.Samples["read_p50_ms"], rep.Samples["read_p95_ms"] = len(reads), len(reads)

	// Correctness after the window, on the quiesced final state.
	if hasWrites(w) {
		if err := checkInserted(sys.eng, gens, rep); err != nil {
			return nil, err
		}
		if err := checkNaive(sys.eng, "on the final state"); err != nil {
			return nil, err
		}
	}
	rowsLive := 0
	for _, name := range sys.eng.DB().Names() {
		if t, ok := sys.eng.DB().Table(name); ok {
			rowsLive += t.Len()
		}
	}
	sys.close()

	if cfg.traced {
		n := max(w.traceOps/cfg.traceDiv, 2*len(gens[0].block))
		run, err := runTraced(inst, cfg.ds, cfg.seed, n, orc.verify)
		if err != nil {
			return nil, err
		}
		rep.count("traced ops", n, run.mismatches, run.firstError)
		rep.PerLayer = layerMetrics(run, rec, counters, rep.EndToEnd["read_p50_ms"])
		rep.PerLayer["storage.rows_live_end"] = float64(rowsLive)
		rep.PerLayer["storage.load_ms"] = medianFloat(loadMs)
		rep.PerLayer["storage.index_build_ms"] = medianFloat(indexMs)
		rep.PerLayer["failed_share"] = float64(rep.Failed) / float64(rep.Attempted)
		rep.Samples["traced_ops"] = n
		if warn := dominanceWarning(w, rep.PerLayer); warn != "" {
			rep.Warnings = append(rep.Warnings, warn)
		}
		if cfg.outDir != "" {
			if err := writeJSON(filepath.Join(cfg.outDir, w.name+".trace.json"), run.spans); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

func hasWrites(w *workload) bool {
	for _, m := range w.mix {
		if isWriteClass(m.class) {
			return true
		}
	}
	return false
}

// checkInserted asserts that the inserted rows still stored are exactly those
// acknowledged as inserted and not yet acknowledged as deleted.
func checkInserted(eng *tmdb.Engine, gens []*opGen, rep *report) error {
	got, err := answer(eng, fmt.Sprintf(`SELECT y.a FROM Y y WHERE y.a >= %d`, insertBase), tmdb.Options{})
	if err != nil {
		return err
	}
	var stored []int64
	if err := json.Unmarshal(got, &stored); err != nil {
		return fmt.Errorf("decoding the inserted rows' ids: %w", err)
	}
	var want []int64
	for _, g := range gens {
		for _, o := range g.pending {
			want = append(want, o.a)
		}
	}
	slices.Sort(stored)
	slices.Sort(want)
	lost := 0
	if !slices.Equal(stored, want) {
		lost = 1
	}
	rep.count("final-state checks", 1, lost,
		fmt.Sprintf("the table holds %d inserted rows, the acknowledged writes leave %d", len(stored), len(want)))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
