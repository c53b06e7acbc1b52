package main

import (
	"fmt"
	"math/rand"

	"tmdb"
)

// clients is the closed-loop client count; GOMAXPROCS is pinned to the same
// number, so both clients can be served at once and nothing more.
const clients = 2

// Op classes of the two write kinds; every other class is a read.
const (
	classInsert = "insert"
	classDelete = "delete"
)

// insertBase is the first `a` of an inserted Y row, far above the generated
// rows' a ∈ [0, 6), so `y.a >= insertBase` selects exactly the inserted rows.
const insertBase = 1_000_000

// deleteLag is how many of a client's own inserts stay live before a delete
// removes the oldest: with 3 inserts per 20-op block, about 64 ops. A client's
// sequence opens with enough inserts that a delete always finds such a row.
const deleteLag = 10

// adhocDomain is the size of the domain the never-repeating literal of an
// ad-hoc query is drawn from, far above the 256-entry plan cache.
const adhocDomain = 1_000_000

// mixEntry is one op class's count in a block of the op sequence.
type mixEntry struct {
	class string
	count int
}

// workload describes one traffic mix. Its statements depend on the generated
// data and are built per seed by newInstance.
type workload struct {
	name string
	why  string
	// indexes are created at set-up, each as table followed by attributes.
	indexes [][]string
	// adhoc sends reads as never-repeating /query text instead of /execute.
	adhoc bool
	// mix is one block of the op sequence: each block holds every class
	// count times, shuffled, so the realized mix is exact and only the order
	// is random.
	mix []mixEntry
	// pool is the number of statements per read class.
	pool int
	// traceOps caps the traced run.
	traceOps int
	// dominant lists the layers whose summed share the design expects to be
	// the largest; a traced run where it is not prints a warning.
	dominant []string
}

// nestedQueries are the fixed statements of nested_exec, one per class.
var nestedQueries = map[string]string{
	"in":       `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
	"subseteq": `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`,
	"chain3":   `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b AND y.c SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`,
	"count":    `SELECT x FROM X x WHERE COUNT(SELECT y.a FROM Y y WHERE x.b = y.b) >= 2`,
	"selnest":  `SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.b) FROM X x`,
	"flat":     `SELECT x.b FROM X x, Y y WHERE x.b = y.d AND y.a < 3 AND x.b < 250`,
}

var pointIndexes = [][]string{{"X", "b"}, {"Y", "d"}, {"Y", "b", "d"}}

var workloads = []*workload{
	{
		name: "nested_exec",
		why:  "six prepared nested queries on unindexed tables: the paper's operators (exec, value) do nearly all the work",
		mix: []mixEntry{
			{"in", 1}, {"subseteq", 1}, {"chain3", 1}, {"count", 1}, {"selnest", 1}, {"flat", 1},
		},
		pool:     1,
		traceOps: 250,
		dominant: []string{"exec", "value"},
	},
	{
		name:     "point_wire",
		why:      "64 prepared indexed point lookups, all plan-cache hits: HTTP, JSON and admission (server) dominate",
		indexes:  pointIndexes,
		mix:      []mixEntry{{"point_x", 1}, {"point_y", 1}},
		pool:     32,
		traceOps: 2500,
		dominant: []string{"server"},
	},
	{
		name:     "adhoc_plan",
		why:      "the same point shapes as never-repeating ad-hoc text: every request parses, binds, translates and plans",
		indexes:  pointIndexes,
		adhoc:    true,
		mix:      []mixEntry{{"point_x", 1}, {"point_y", 1}, {"semi_pt", 1}},
		pool:     64,
		traceOps: 2500,
		dominant: []string{"tmql", "core", "planner"},
	},
	{
		name:    "mixed_rw",
		why:     "70% prepared point reads beside 15% inserts and 15% deletes on Y: storage, stats recollection and plan invalidation dominate",
		indexes: pointIndexes,
		// read_x outweighs the two classes that read the mutated Y so that the
		// reads slowed by a write stay well below half: read_p50_ms then sits
		// inside the fast mode and read_p95_ms inside the slow one, on every
		// run.
		mix: []mixEntry{
			{"read_x", 8}, {"read_y", 3}, {"read_semi", 3}, {classInsert, 3}, {classDelete, 3},
		},
		pool:     16,
		traceOps: 500,
		dominant: []string{"storage", "stats"},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// statement is one read statement of a workload instance.
type statement struct {
	class string
	// name is the prepared-statement name; ad-hoc workloads prepare nothing.
	name string
	// src is the statement the oracle answers.
	src string
	// adhocFmt is src with one extra conjunct excluding a literal (%d) that no
	// row holds: the text never repeats while the answer stays src's.
	adhocFmt string
	// stable says the answer cannot change during the run, so every response
	// is compared with the oracle's.
	stable bool
}

// instance is a workload bound to one seed's data.
type instance struct {
	w     *workload
	stmts []statement
	// pools indexes stmts by class.
	pools map[string][]int
	// pairs are (b, d) of generated Y rows: read_y probes them and inserted
	// rows reuse them, so writes change what reads return.
	pairs [][2]int64
}

// newInstance derives the workload's statements from the seed's data.
func newInstance(w *workload, ds dataset, seed int64) (*instance, error) {
	eng := newEngine(ds, seed)
	tab, ok := eng.DB().Table("Y")
	if !ok {
		return nil, fmt.Errorf("%s: generated database has no table Y", w.name)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	inst := &instance{w: w, pools: make(map[string][]int)}
	var matched [][2]int64
	for _, row := range tab.Rows() {
		b, d := row.MustGet("b").AsInt(), row.MustGet("d").AsInt()
		if d >= 0 { // dangling rows carry negative keys
			matched = append(matched, [2]int64{b, d})
		}
	}
	if len(matched) == 0 {
		return nil, fmt.Errorf("%s: no matched Y rows to probe", w.name)
	}
	for i := 0; i < w.pool; i++ {
		inst.pairs = append(inst.pairs, matched[rng.Intn(len(matched))])
	}
	for _, m := range w.mix {
		if isWriteClass(m.class) {
			continue
		}
		for i := 0; i < w.pool; i++ {
			st := statement{class: m.class, name: fmt.Sprintf("%s_%d", m.class, i), stable: true}
			k := int64(rng.Intn(ds.Keys))
			switch m.class {
			case "point_x", "read_x":
				st.src = fmt.Sprintf(`SELECT x FROM X x WHERE x.b = %d`, k)
				st.adhocFmt = st.src + ` AND x.b <> %d`
			case "point_y", "read_y":
				p := inst.pairs[i]
				st.src = fmt.Sprintf(`SELECT y.a FROM Y y WHERE y.b = %d AND y.d = %d`, p[0], p[1])
				st.adhocFmt = st.src + ` AND y.a <> %d`
				st.stable = m.class == "point_y"
			case "semi_pt", "read_semi":
				const sub = ` AND x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`
				head := fmt.Sprintf(`SELECT x FROM X x WHERE x.b = %d`, k)
				st.src = head + sub
				st.adhocFmt = head + ` AND x.b <> %d` + sub
				st.stable = m.class == "semi_pt"
			default:
				src, ok := nestedQueries[m.class]
				if !ok {
					return nil, fmt.Errorf("%s: no statement for class %q", w.name, m.class)
				}
				st.src = src
			}
			inst.pools[m.class] = append(inst.pools[m.class], len(inst.stmts))
			inst.stmts = append(inst.stmts, st)
		}
	}
	return inst, nil
}

// opKind is the endpoint an op goes to.
type opKind int

const (
	kindExecute opKind = iota // POST /execute of a prepared statement
	kindQuery                 // POST /query with ad-hoc text
	kindInsert                // POST /insert into Y
	kindDelete                // POST /delete from Y
)

// op is one generated request.
type op struct {
	class string
	kind  opKind
	// stmt indexes instance.stmts for reads.
	stmt int
	// text is the statement name (execute), the query (ad-hoc), the tuple
	// literal (insert) or the predicate (delete).
	text string
	// a, b, d are an inserted or deleted row's attributes.
	a, b, d int64
}

func (o op) isWrite() bool { return o.kind == kindInsert || o.kind == kindDelete }

// opGen yields one client's op sequence, a pure function of (instance, seed,
// client).
type opGen struct {
	inst   *instance
	rng    *rand.Rand
	client int64
	block  []string
	pos    int
	seq    int64
	// pending holds the rows this client inserted and has not deleted, oldest
	// first.
	pending []op
	// prime is how many inserts open the sequence: deleteLag plus a block's
	// deletes, so pending never drops below deleteLag.
	prime int64
}

func newOpGen(inst *instance, seed int64, client int) *opGen {
	g := &opGen{inst: inst, client: int64(client)}
	g.rng = rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	for _, m := range inst.w.mix {
		for i := 0; i < m.count; i++ {
			g.block = append(g.block, m.class)
		}
		if m.class == classDelete {
			g.prime = deleteLag + int64(m.count)
		}
	}
	g.pos = len(g.block)
	return g
}

func (g *opGen) next() op {
	class := classInsert // the opening inserts
	if g.seq >= g.prime {
		if g.pos == len(g.block) {
			g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
			g.pos = 0
		}
		class = g.block[g.pos]
		g.pos++
	}
	switch class {
	case classDelete:
		victim := g.pending[0]
		g.pending = g.pending[1:]
		victim.class, victim.kind = classDelete, kindDelete
		victim.text = fmt.Sprintf("y.a = %d", victim.a)
		return victim
	case classInsert:
		p := g.inst.pairs[g.rng.Intn(len(g.inst.pairs))]
		o := op{class: classInsert, kind: kindInsert, a: insertBase + g.seq*clients + g.client, b: p[0], d: p[1]}
		o.text = fmt.Sprintf("(a = %d, b = %d, c = {1}, d = %d)", o.a, o.b, o.d)
		g.seq++
		g.pending = append(g.pending, o)
		return o
	}
	pool := g.inst.pools[class]
	o := op{class: class, kind: kindExecute, stmt: pool[g.rng.Intn(len(pool))]}
	st := g.inst.stmts[o.stmt]
	o.text = st.name
	if g.inst.w.adhoc {
		o.kind = kindQuery
		// Keys and set elements stay below 1000, so the excluded literal
		// matches no row.
		o.text = fmt.Sprintf(st.adhocFmt, 1000+g.rng.Int63n(adhocDomain))
	}
	return o
}

// target executes ops against the system under test.
type target interface {
	// do returns a read's canonical result JSON; writes return nil.
	do(o op) ([]byte, error)
}

// wireTarget sends ops through one session of the HTTP server.
type wireTarget struct{ c *tmdb.Client }

func (t wireTarget) do(o op) ([]byte, error) {
	switch o.kind {
	case kindExecute:
		resp, err := t.c.Execute(o.text, nil)
		if err != nil {
			return nil, err
		}
		return resp.Result, nil
	case kindQuery:
		resp, err := t.c.Query(o.text, nil)
		if err != nil {
			return nil, err
		}
		return resp.Result, nil
	case kindInsert:
		added, err := t.c.Insert("Y", o.text)
		return nil, insertOutcome(o, added, err)
	default:
		n, err := t.c.Delete("Y", "y", o.text)
		return nil, deleteOutcome(o, n, err)
	}
}

// insertOutcome is the error of an insert that failed or added nothing.
func insertOutcome(o op, added bool, err error) error {
	if err == nil && !added {
		err = fmt.Errorf("insert of %s: row already present", o.text)
	}
	return err
}

// deleteOutcome is the error of a delete that failed or did not remove
// exactly its one row.
func deleteOutcome(o op, n int, err error) error {
	if err == nil && n != 1 {
		err = fmt.Errorf("delete where %s removed %d rows, want 1", o.text, n)
	}
	return err
}
