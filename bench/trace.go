package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"tmdb"
)

// The traced run replays one client's op sequence twice, single-threaded, on
// two identically built engines, so the stored state matches op by op. The
// wire pass sends each op through HTTP inside one server.request span. The
// library pass decomposes each op into spans around the public calls of the
// layers below the server. No code inside the program is instrumented.

// layerNames are the repo's modules, in pipeline order.
var layerNames = []string{"tmql", "core", "planner", "stats", "engine", "exec", "value", "storage", "server"}

// Span names of the library pass and the wire pass.
const (
	spanParse     = "tmql.parse"
	spanBind      = "tmql.bind"
	spanCollect   = "stats.collect"
	spanTranslate = "core.translate"
	spanPlan      = "engine.plan"
	spanExecute   = "engine.execute"
	spanEncode    = "value.encode"
	spanInsert    = "storage.insert"
	spanDelete    = "storage.delete"
	spanRequest   = "server.request"
)

// span is one timed call into a layer.
type span struct {
	Name string `json:"name"`
	// Pass is "wire" or "library".
	Pass string `json:"pass"`
	// Op is the parent: the op's index in the sequence. The spans of one op
	// share it across both passes.
	Op    int    `json:"op"`
	Class string `json:"class"`
	// Start and End are nanoseconds since the pass began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Replay marks a span that repeats work another span of the same op
	// already contains; self times subtract it there instead of adding it.
	Replay bool `json:"replay,omitempty"`
	// Hit marks an engine.plan span served from the plan cache.
	Hit bool `json:"hit,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects the spans of one pass in memory.
type tracer struct {
	pass   string
	origin time.Time
	spans  []span
}

func newTracer(pass string) *tracer { return &tracer{pass: pass, origin: time.Now()} }

// time runs f inside a span and returns the span's index.
func (t *tracer) time(name string, opID int, class string, f func()) int {
	start := time.Since(t.origin)
	f()
	end := time.Since(t.origin)
	t.spans = append(t.spans, span{Name: name, Pass: t.pass, Op: opID, Class: class, Start: int64(start), End: int64(end)})
	return len(t.spans) - 1
}

// selfTimes attributes the library-pass spans of one op to layers. Translation
// is replayed outside the plan-cache miss that contains it, so a miss splits
// into core (the replay) and planner (the rest). engine.execute repeats the
// plan-cache lookup that engine.plan already paid, so exec is the execute span
// minus the op's measured lookup.
func selfTimes(spans []span) map[string]time.Duration {
	var translate, lookup time.Duration
	for _, s := range spans {
		switch {
		case s.Name == spanTranslate:
			translate += s.dur()
		case s.Name == spanPlan && s.Hit:
			lookup = s.dur()
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		d := s.dur()
		switch s.Name {
		case spanParse, spanBind:
			self["tmql"] += d
		case spanCollect:
			self["stats"] += d
		case spanPlan:
			switch {
			case s.Replay:
			case s.Hit:
				self["engine"] += d
			default:
				core := min(translate, d)
				self["core"] += core
				self["planner"] += d - core
			}
		case spanExecute:
			self["exec"] += max(d-lookup, 0)
		case spanEncode:
			self["value"] += d
		case spanInsert, spanDelete:
			self["storage"] += d
		}
	}
	return self
}

// tracedOp is what the two passes measured for one op.
type tracedOp struct {
	class string

	// Wire pass.
	wire      time.Duration
	respBytes int

	// Library pass.
	self       map[string]time.Duration
	libTotal   time.Duration
	miss       bool
	candidates int
	recollects int
	evalSteps  int64
	rows       int
	mallocs    uint64
	allocBytes uint64
	morsels    int64
	stolen     int64
	busy       time.Duration
	degree     int
	encoded    int
}

// libPass runs ops against an engine through the layers' public calls.
type libPass struct {
	eng      *tmdb.Engine
	tr       *tracer
	prepared []*tmdb.Prepared
	bound    []expr
	// lastStats remembers the statistics object last seen per table: the
	// catalog hands out a new one exactly when it recollected.
	lastStats map[string]*tmdb.TableStats
}

func newLibPass(eng *tmdb.Engine, inst *instance) (*libPass, error) {
	lp := &libPass{eng: eng, tr: newTracer("library"), lastStats: make(map[string]*tmdb.TableStats)}
	for _, st := range inst.stmts {
		p, err := eng.Prepare(st.src)
		if err != nil {
			return nil, fmt.Errorf("library pass: %w", err)
		}
		parsed, err := parseQuery(st.src)
		if err != nil {
			return nil, fmt.Errorf("library pass: %w", err)
		}
		b, err := bindQuery(eng, parsed)
		if err != nil {
			return nil, fmt.Errorf("library pass: %w", err)
		}
		lp.prepared = append(lp.prepared, p)
		lp.bound = append(lp.bound, b)
		for _, t := range p.Tables() {
			lp.lastStats[t] = eng.Stats().Table(t)
		}
	}
	return lp, nil
}

// do runs one op, filling the library half of t, and returns a read's result.
func (lp *libPass) do(id int, o op, t *tracedOp) ([]byte, error) {
	var err error
	first := len(lp.tr.spans)
	defer func() {
		t.self = selfTimes(lp.tr.spans[first:])
		for _, d := range t.self {
			t.libTotal += d
		}
	}()
	switch o.kind {
	case kindInsert:
		row := yRow(o.a, o.b, 1, o.d)
		lp.tr.time(spanInsert, id, o.class, func() {
			added, ierr := lp.eng.InsertValue("Y", row)
			err = insertOutcome(o, added, ierr)
		})
		return nil, err
	case kindDelete:
		lp.tr.time(spanDelete, id, o.class, func() {
			n, derr := lp.eng.Delete("Y", "y", o.text)
			err = deleteOutcome(o, n, derr)
		})
		return nil, err
	}

	stmt, bound := lp.prepared[o.stmt], lp.bound[o.stmt]
	if o.kind == kindQuery {
		var parsed expr
		lp.tr.time(spanParse, id, o.class, func() { parsed, err = parseQuery(o.text) })
		if err != nil {
			return nil, err
		}
		lp.tr.time(spanBind, id, o.class, func() { bound, err = bindQuery(lp.eng, parsed) })
		if err != nil {
			return nil, err
		}
		// Prepare parses and binds again; it only hands the bound tree to the
		// engine and is not part of the op.
		if stmt, err = lp.eng.Prepare(o.text); err != nil {
			return nil, err
		}
	}

	lp.tr.time(spanCollect, id, o.class, func() {
		for _, name := range stmt.Tables() {
			ts := lp.eng.Stats().Table(name)
			if ts != lp.lastStats[name] {
				t.recollects++
				lp.lastStats[name] = ts
			}
		}
	})

	opts := tmdb.Options{}
	hitsBefore := lp.eng.PlanCacheStats().Hits
	plan := lp.tr.time(spanPlan, id, o.class, func() {
		cands, cerr := stmt.Candidates(opts)
		t.candidates, err = len(cands), cerr
	})
	if err != nil {
		return nil, err
	}
	if lp.eng.PlanCacheStats().Hits > hitsBefore {
		lp.tr.spans[plan].Hit = true
	} else {
		t.miss = true
		tr := lp.tr.time(spanTranslate, id, o.class, func() { translateCandidates(lp.eng, bound) })
		lp.tr.spans[tr].Replay = true
		again := lp.tr.time(spanPlan, id, o.class, func() { _, err = stmt.Candidates(opts) })
		lp.tr.spans[again].Replay, lp.tr.spans[again].Hit = true, true
		if err != nil {
			return nil, err
		}
	}

	var res *tmdb.Result
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lp.tr.time(spanExecute, id, o.class, func() { res, err = stmt.Query(opts) })
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	t.mallocs, t.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.evalSteps, t.rows, t.degree = res.EvalSteps, res.Value.Len(), res.Parallelism
	t.morsels, t.stolen = res.Sched.Dispatched+res.Sched.Stolen, res.Sched.Stolen
	t.busy = time.Duration(res.Sched.BusyNanos)

	var out []byte
	lp.tr.time(spanEncode, id, o.class, func() { out, err = json.Marshal(res.Value) })
	t.encoded = len(out)
	return out, err
}

// tracedRun is the outcome of both passes over one op sequence.
type tracedRun struct {
	ops   []tracedOp
	spans []span
	// mismatches counts reads whose wire result differed from the oracle's
	// answer or from the library pass's result for the same op.
	mismatches int
	firstError string
}

// runTraced replays the first n ops of client 0's sequence through a fresh
// server (wire pass) and a fresh engine (library pass).
func runTraced(inst *instance, ds dataset, seed int64, n int, verify func(op, []byte) bool) (*tracedRun, error) {
	run := &tracedRun{ops: make([]tracedOp, n)}
	sums := make([][sha256.Size]byte, n)
	fail := func(o op, err error) {
		run.mismatches++
		if run.firstError == "" {
			run.firstError = describeFailure(o, err)
		}
	}

	sys, err := setUp(inst, ds, seed, 1)
	if err != nil {
		return nil, err
	}
	wire := newTracer("wire")
	tgt := wireTarget{sys.clients[0]}
	gen := newOpGen(inst, seed, 0)
	for i := range run.ops {
		o := gen.next()
		t := &run.ops[i]
		t.class = o.class
		var got []byte
		var err error
		s := wire.time(spanRequest, i, o.class, func() { got, err = tgt.do(o) })
		t.wire = wire.spans[s].dur()
		t.respBytes = len(got)
		sums[i] = sha256.Sum256(got)
		if err != nil || !verify(o, got) {
			fail(o, err)
		}
	}
	sys.close()

	lib, err := buildEngine(inst, ds, seed)
	if err != nil {
		return nil, err
	}
	lp, err := newLibPass(lib.eng, inst)
	if err != nil {
		return nil, err
	}
	gen = newOpGen(inst, seed, 0)
	for i := range run.ops {
		o := gen.next()
		got, err := lp.do(i, o, &run.ops[i])
		if err != nil || sha256.Sum256(got) != sums[i] {
			fail(o, err)
		}
	}
	run.spans = append(wire.spans, lp.tr.spans...)
	return run, nil
}
