// Command bench is the repository's benchmark: four closed-loop workloads
// through a loopback tmdb server, end-to-end metrics measured with tracing
// off, and a traced run that attributes each request's time to the layers
// (tmql, core, planner, stats, engine, exec, value, storage, server) from
// outside the program. README.md has the metric glossary and the rationale.
//
// Usage, from this directory:
//
//	go run .                                  # every workload, both metric sets
//	go run . -workload point_wire             # one workload
//	go run . -repeat 2 -check                 # A/A: two runs must agree within the bounds
//	go run . -workload nested_exec -seed 7 -seconds 20 -trace 0   # the driver's form
//
// The driver's form prints, as the last line of standard output, one JSON
// object with the keys correct, attempted, failed and metrics: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. Every other form
// prints the full result document there and writes it to out/result.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// Window lengths. BENCHMARK.json's run_seconds repeats defaultSeconds.
const (
	defaultSeconds = 20
	warmupSeconds  = 2
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all four)")
		seed    = flag.Int64("seed", 1994, "seed of the data and of every op sequence")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics only; 1: add the traced run and report per-layer metrics; default: both")
		repeat  = flag.Int("repeat", 1, "run every workload this many times")
		check   = flag.Bool("check", false, "with -repeat >= 2: fail when two runs disagree by more than BENCHMARK.json's bounds")
		quick   = flag.Bool("quick", false, "tenth-scale data and traced run, for smoke tests")
		outDir  = flag.String("out", "out", "directory for result.json and the trace files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < -1 || *trace > 1 || *repeat < 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if runtime.NumCPU() < clients {
		fmt.Fprintf(os.Stderr, "bench: REFUSED: %d closed-loop clients need %d CPUs, this host has %d; no result is reported\n",
			clients, clients, runtime.NumCPU())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(clients)

	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []*workload{w}
	}
	cfg := config{
		seed:     *seed,
		ds:       fullDataset,
		warmup:   warmupSeconds * time.Second,
		window:   time.Duration(*seconds * float64(time.Second)),
		naiveDiv: 5,
		traced:   *trace != 0,
		traceDiv: 1,
		outDir:   *outDir,
	}
	if *quick {
		cfg.ds, cfg.naiveDiv, cfg.traceDiv = fullDataset.scaled(10), 1, 10
		cfg.warmup /= 10
	}

	doc := resultDoc{Provenance: stamp(cfg, *repeat)}
	ok := true
	for r := 0; r < *repeat; r++ {
		for _, w := range selected {
			rep, err := runWorkload(w, cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			printReport(rep)
			ok = ok && rep.Correct
			doc.Runs = append(doc.Runs, rep)
		}
	}
	if *check && *repeat >= 2 {
		bounds, err := readBounds()
		if err != nil {
			fatal(err)
		}
		doc.AA = compareRuns(doc.Runs, bounds)
		for _, row := range doc.AA {
			fmt.Println(row)
			ok = ok && row.Within
		}
	}
	if err := writeJSON(filepath.Join(*outDir, "result.json"), doc); err != nil {
		fatal(err)
	}

	var last any = doc
	if len(doc.Runs) == 1 && *trace >= 0 {
		last = driverLine(doc.Runs[0], *trace == 1)
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

// resultDoc is out/result.json.
type resultDoc struct {
	Provenance provenance `json:"provenance"`
	Runs       []*report  `json:"runs"`
	AA         []aaRow    `json:"aa,omitempty"`
}

// provenance records which build and parameters produced a result.
type provenance struct {
	GitRev         string  `json:"git_rev"`
	GoVersion      string  `json:"go_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"num_cpu"`
	Seed           int64   `json:"seed"`
	Dataset        dataset `json:"dataset"`
	WarmupSeconds  float64 `json:"warmup_seconds"`
	WindowSeconds  float64 `json:"window_seconds"`
	SetupRepeats   int     `json:"setup_repeats"`
	Clients        int     `json:"clients"`
	Repeat         int     `json:"repeat"`
	StartedUnixSec int64   `json:"started_unix_s"`
}

func stamp(cfg config, repeat int) provenance {
	p := provenance{
		GitRev: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: cfg.seed, Dataset: cfg.ds, WarmupSeconds: cfg.warmup.Seconds(), WindowSeconds: cfg.window.Seconds(),
		SetupRepeats: setupRepeats, Clients: clients, Repeat: repeat, StartedUnixSec: time.Now().Unix(),
	}
	// The toolchain stamps the revision when it builds inside a git work tree.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				p.GitRev = s.Value
			}
		}
	}
	return p
}

// printReport prints every metric of a run by name, with its unit.
func printReport(rep *report) {
	for _, d := range endToEnd {
		fmt.Printf("%-12s %-32s %14.4f %-7s n=%d\n", rep.Workload, d.Name, rep.EndToEnd[d.Name], d.Unit, rep.Samples[d.Name])
	}
	if rep.PerLayer != nil {
		for _, d := range perLayer {
			fmt.Printf("%-12s %-32s %14.4f %s\n", rep.Workload, d.Name, rep.PerLayer[d.Name], d.Unit)
		}
	}
	fmt.Printf("%-12s attempted=%d failed=%d correct=%v\n", rep.Workload, rep.Attempted, rep.Failed, rep.Correct)
	for _, p := range rep.Problems {
		fmt.Printf("%-12s PROBLEM: %s\n", rep.Workload, p)
	}
	for _, w := range rep.Warnings {
		fmt.Printf("%-12s WARNING: %s\n", rep.Workload, w)
	}
}

// driverLine is the object the driver reads from the last line of output.
func driverLine(rep *report, perLayerSet bool) any {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEnd, rep.EndToEnd
	if perLayerSet {
		defs, values = perLayer, rep.PerLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metric{values[d.Name], d.Unit}
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics}
}

// readBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json, which sits in the directory above this one.
func readBounds() (map[string]float64, error) {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("-check needs the bounds: %w (run from the bench directory)", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// aaRow compares one metric of one workload across the repeats of a build.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	// Spread is (max-min)/min; Bound is what it may not exceed (0 for an
	// exact count, which must repeat exactly).
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Within bool    `json:"within"`
}

func (r aaRow) String() string {
	verdict := "ok"
	if !r.Within {
		verdict = "EXCEEDED"
	}
	return fmt.Sprintf("A/A %-12s %-32s min=%-12.4f max=%-12.4f spread=%.4f bound=%.4f %s",
		r.Workload, r.Metric, r.Min, r.Max, r.Spread, r.Bound, verdict)
}

// compareRuns reports, per workload, how far the repeats disagree on every
// end-to-end metric and on every exact count.
func compareRuns(runs []*report, bounds map[string]float64) []aaRow {
	var rows []aaRow
	for _, w := range workloads {
		var reps []*report
		for _, r := range runs {
			if r.Workload == w.name {
				reps = append(reps, r)
			}
		}
		if len(reps) < 2 {
			continue
		}
		row := func(metric string, bound float64, value func(*report) float64) {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range reps {
				lo, hi = math.Min(lo, value(r)), math.Max(hi, value(r))
			}
			spread := ratio(hi-lo, lo)
			rows = append(rows, aaRow{w.name, metric, lo, hi, spread, bound, spread <= bound})
		}
		for _, d := range endToEnd {
			row(d.Name, bounds[d.Name], func(r *report) float64 { return r.EndToEnd[d.Name] })
		}
		if reps[0].PerLayer != nil {
			for _, name := range exactCounts {
				row(name, 0, func(r *report) float64 { return r.PerLayer[name] })
			}
		}
	}
	return rows
}
