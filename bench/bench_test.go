package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// quickConfig is the -quick scale the tests run at.
func quickConfig() config {
	return config{
		seed: 1994, ds: fullDataset.scaled(10), naiveDiv: 1, traceDiv: 10,
		warmup: 100 * time.Millisecond, window: 200 * time.Millisecond, traced: true,
	}
}

func TestSameSeedSameOpSequence(t *testing.T) {
	cfg := quickConfig()
	for _, w := range workloads {
		sequence := func(seed int64) []op {
			inst, err := newInstance(w, cfg.ds, seed)
			if err != nil {
				t.Fatal(err)
			}
			g := newOpGen(inst, seed, 1)
			ops := make([]op, 400)
			for i := range ops {
				ops[i] = g.next()
			}
			return ops
		}
		a, b := sequence(7), sequence(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different op sequences", w.name)
		}
		if reflect.DeepEqual(a, sequence(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", w.name)
		}
	}
}

// After the opening inserts every block of the sequence holds the mix exactly,
// and mixed_rw deletes only rows it inserted at least deleteLag inserts earlier.
func TestOpSequenceHoldsTheMix(t *testing.T) {
	w := workloadByName("mixed_rw")
	inst, err := newInstance(w, quickConfig().ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := newOpGen(inst, 1, 0)
	blockLen := 0
	for _, m := range w.mix {
		blockLen += m.count
	}
	var inserted []int64
	for i := int64(0); i < g.prime; i++ {
		o := g.next()
		if o.kind != kindInsert {
			t.Fatalf("op %d of the opening is a %s, want an insert", i, o.class)
		}
		inserted = append(inserted, o.a)
	}
	for block := 0; block < 50; block++ {
		counts := make(map[string]int)
		for i := 0; i < blockLen; i++ {
			o := g.next()
			counts[o.class]++
			switch o.kind {
			case kindInsert:
				inserted = append(inserted, o.a)
			case kindDelete:
				if o.a != inserted[0] || len(inserted) < deleteLag {
					t.Fatalf("block %d: delete of %d, oldest of %d live rows is %d", block, o.a, len(inserted), inserted[0])
				}
				inserted = inserted[1:]
			}
		}
		for _, m := range w.mix {
			if counts[m.class] != m.count {
				t.Fatalf("block %d holds %d %s ops, the mix says %d", block, counts[m.class], m.class, m.count)
			}
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	samples := func() []time.Duration { return []time.Duration{40, 10, 30, 20} }
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.50, 20}, {0.51, 30}, {0.75, 30}, {0.95, 40}, {1, 40}, {0.01, 10}} {
		if got := percentile(samples(), c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianFloat = %v, want 2.5", got)
	}
	if got := medianFloat([]float64{9, 1, 5}); got != 5 {
		t.Errorf("medianFloat = %v, want 5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(name string, start, end int64) span { return span{Name: name, Start: start, End: end} }
	replay := func(s span) span { s.Replay = true; return s }
	hit := func(s span) span { s.Hit = true; return s }

	// A plan-cache miss: 100 of planning hold 30 of translation, and the
	// execute span repeats the 4 of lookup the replayed hit measured.
	miss := []span{
		at(spanParse, 0, 7), at(spanBind, 7, 10), at(spanCollect, 10, 12),
		at(spanPlan, 12, 112), replay(at(spanTranslate, 112, 142)), replay(hit(at(spanPlan, 142, 146))),
		at(spanExecute, 146, 196), at(spanEncode, 196, 201),
	}
	want := map[string]time.Duration{"tmql": 10, "stats": 2, "core": 30, "planner": 70, "exec": 46, "value": 5}
	if got := selfTimes(miss); !reflect.DeepEqual(got, want) {
		t.Errorf("miss: self times %v, want %v", got, want)
	}

	// A hit: the lookup is the engine's, and execute repeats it.
	cached := []span{at(spanCollect, 0, 1), hit(at(spanPlan, 1, 4)), at(spanExecute, 4, 24), at(spanEncode, 24, 26)}
	want = map[string]time.Duration{"stats": 1, "engine": 3, "exec": 17, "value": 2}
	if got := selfTimes(cached); !reflect.DeepEqual(got, want) {
		t.Errorf("hit: self times %v, want %v", got, want)
	}

	write := []span{at(spanInsert, 0, 9)}
	want = map[string]time.Duration{"storage": 9}
	if got := selfTimes(write); !reflect.DeepEqual(got, want) {
		t.Errorf("write: self times %v, want %v", got, want)
	}
}

// corrupting answers every nth read with a wrong result.
type corrupting struct {
	target
	n, seen int
}

func (c *corrupting) do(o op) ([]byte, error) {
	got, err := c.target.do(o)
	if c.seen++; err == nil && !o.isWrite() && c.seen%c.n == 0 {
		got = []byte(`[{"wrong":1}]`)
	}
	return got, err
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	cfg := quickConfig()
	inst, err := newInstance(workloadByName("point_wire"), cfg.ds, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := setUp(inst, cfg.ds, cfg.seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	orc, err := newOracle(sys.eng, inst)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tgt target) *report {
		rep := &report{}
		rec, _ := runClosedLoop([]target{tgt}, []*opGen{newOpGen(inst, cfg.seed, 0)}, orc.verify, 50*time.Millisecond)
		rep.count("ops", rec.attempted, rec.failed, rec.firstFailure)
		return rep
	}
	if rep := run(wireTarget{sys.clients[0]}); !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("honest server: attempted=%d failed=%d correct=%v %v", rep.Attempted, rep.Failed, rep.Correct, rep.Problems)
	}
	rep := run(&corrupting{target: wireTarget{sys.clients[0]}, n: 10})
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("wrong answers went unnoticed: attempted=%d failed=%d correct=%v", rep.Attempted, rep.Failed, rep.Correct)
	}
	if want := rep.Attempted / 10; rep.Failed != want {
		t.Errorf("failed = %d, want every tenth of %d ops = %d", rep.Failed, rep.Attempted, want)
	}
}

// The exact counts are machine-independent: two traced runs of one seed agree
// on them exactly.
func TestSameSeedSameExactCounts(t *testing.T) {
	cfg := quickConfig()
	for _, w := range workloads {
		inst, err := newInstance(w, cfg.ds, cfg.seed)
		if err != nil {
			t.Fatal(err)
		}
		counts := func() map[string]float64 {
			run, err := runTraced(inst, cfg.ds, cfg.seed, w.traceOps/cfg.traceDiv, func(op, []byte) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			if run.mismatches > 0 {
				t.Fatalf("%s: %d ops disagree between the passes, first: %s", w.name, run.mismatches, run.firstError)
			}
			m := layerMetrics(run, newRecorder(), serverCounters{}, 1)
			out := make(map[string]float64)
			for _, name := range exactCounts {
				out[name] = m[name]
			}
			return out
		}
		if a, b := counts(), counts(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: exact counts differ between two runs of one seed:\n%v\n%v", w.name, a, b)
		}
	}
}

// Every workload runs end to end at the quick scale, is correct, and reports
// every declared metric.
func TestQuickRunReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		rep, err := runWorkload(w, quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: failed=%d %v", w.name, rep.Failed, rep.Problems)
		}
		for _, d := range endToEnd {
			if v, ok := rep.EndToEnd[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v)
			}
		}
		if len(rep.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, %d declared", w.name, len(rep.PerLayer), len(perLayer))
		}
		for _, d := range perLayer {
			if _, ok := rep.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, d.Name)
			}
		}
		if w.name != "mixed_rw" && rep.PerLayer["stats.recollects_per_kop"] != 0 {
			t.Errorf("%s: read-only workload recollected statistics", w.name)
		}
	}
}

// The benchmark may use the public tmdb package anywhere, and
// internal/datagen, internal/tmql and internal/core in layers.go only. The
// ROADMAP schedules planner, exec, workload and benchkit for consolidation,
// and later changes may not edit this directory, so it must not pin them.
func TestImportBoundary(t *testing.T) {
	allowedInLayers := map[string]bool{
		"tmdb/internal/datagen": true, "tmdb/internal/tmql": true, "tmdb/internal/core": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case path != "tmdb" && !strings.HasPrefix(path, "tmdb/"):
				if strings.Contains(strings.SplitN(path, "/", 2)[0], ".") {
					t.Errorf("%s imports %s: only the standard library and tmdb are allowed", file, path)
				}
			case path == "tmdb":
			case file == "layers.go" && allowedInLayers[path]:
			default:
				t.Errorf("%s imports %s: outside the import boundary", file, path)
			}
		}
	}
}

// BENCHMARK.json declares what this program reports.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	type declared struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || spec.RunSeconds != defaultSeconds {
		t.Errorf("paths %v run_seconds %d, want [bench] and %d", spec.Paths, spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d declared as %+v, defined as %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []declared, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics declared, %d reported", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d declared as %s %s %s, reported as %s %s %s", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd, true)
	same("per-layer", spec.PerLayer, perLayer, false)
}
