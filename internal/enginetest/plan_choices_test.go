package enginetest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tmdb/internal/datagen"
	"tmdb/internal/engine"
)

// The plan-choice golden records every cost-based decision a refactor of
// translation or planning must keep: for each golden on its sample database
// (bare, then with AccessIndexes registered) and for the benchmark's nested
// and point shapes on benchmark-sized data after Analyze, one line with the
// EXPLAIN header (strategy, logical alternative, join family, access path)
// and the operator skeleton, operator names and tables only. Regenerate it
// with
//
//	go test ./internal/enginetest -run TestPlanChoices -update
//
// and read the diff: a change that only relabels an alternative or only adds
// lines for new goldens keeps every plan choice.

var update = flag.Bool("update", false, "rewrite testdata/plan_choices.txt from the current planner")

const planChoicesFile = "testdata/plan_choices.txt"

// benchShapes are the benchmark's statements: the six nested_exec classes,
// then the point classes with one constant each, prepared and ad hoc.
var benchShapes = []struct{ name, query string }{
	{"in", `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`},
	{"subseteq", `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`},
	{"chain3", `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b AND y.c SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`},
	{"count", `SELECT x FROM X x WHERE COUNT(SELECT y.a FROM Y y WHERE x.b = y.b) >= 2`},
	{"selnest", `SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.b) FROM X x`},
	{"flat", `SELECT x.b FROM X x, Y y WHERE x.b = y.d AND y.a < 3 AND x.b < 250`},
	{"point_x", `SELECT x FROM X x WHERE x.b = 7`},
	{"point_x adhoc", `SELECT x FROM X x WHERE x.b = 7 AND x.b <> 123456`},
	{"point_y", `SELECT y.a FROM Y y WHERE y.b = %d AND y.d = %d`},
	{"point_y adhoc", `SELECT y.a FROM Y y WHERE y.b = %d AND y.d = %d AND y.a <> 123456`},
	{"semi_pt", `SELECT x FROM X x WHERE x.b = 7 AND x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`},
	{"semi_pt adhoc", `SELECT x FROM X x WHERE x.b = 7 AND x.b <> 123456 AND x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`},
}

// benchEngine builds the benchmark's data (seed 1994), with the point
// workloads' indexes when indexed, and collects exact statistics.
func benchEngine(t *testing.T, indexed bool) *engine.Engine {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 2000, NY: 6000, NZ: 4000, Keys: 500, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1994,
	})
	eng := engine.New(cat, db)
	if indexed {
		for _, ix := range [][]string{{"X", "b"}, {"Y", "d"}, {"Y", "b", "d"}} {
			if err := eng.CreateIndex(ix[0], ix[1:]...); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Analyze()
	return eng
}

// planChoice renders the auto decision for q as one line.
func planChoice(t *testing.T, eng *engine.Engine, name, q string) string {
	t.Helper()
	out, err := eng.Explain(q, engine.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lines := strings.Split(out, "\n")
	header := strings.TrimSuffix(lines[0], " (cost-based)")
	if strings.HasPrefix(lines[1], "naive leaves:") {
		header, lines = header+" "+lines[1], lines[1:]
	}
	var body []string
	for _, l := range lines[1:] {
		if l == "" || strings.HasPrefix(l, "candidates considered:") {
			break
		}
		body = append(body, l)
	}
	skel, rest := skeleton(body)
	if len(rest) != 0 {
		t.Fatalf("%s: unparsed EXPLAIN lines %q", name, rest)
	}
	return fmt.Sprintf("%s: %s %s", name, header, skel)
}

// skeleton renders the indented EXPLAIN operator lines as a nested term of
// operator names, scans keeping their table. It returns the lines below the
// first line's subtree.
func skeleton(lines []string) (string, []string) {
	depth := func(l string) int { return len(l) - len(strings.TrimLeft(l, " ")) }
	line := strings.TrimLeft(lines[0], " ")
	name := line[:strings.IndexAny(line, "[(")]
	if strings.HasPrefix(line, "Scan(") {
		name = line[:strings.Index(line, ")")+1]
	}
	d := depth(lines[0])
	rest := lines[1:]
	var kids []string
	for len(rest) > 0 && depth(rest[0]) > d {
		var k string
		k, rest = skeleton(rest)
		kids = append(kids, k)
	}
	if len(kids) == 0 {
		return name, rest
	}
	return name + "(" + strings.Join(kids, ", ") + ")", rest
}

// TestPlanChoices compares every auto decision with testdata's golden.
func TestPlanChoices(t *testing.T) {
	var got []string
	for _, g := range Goldens {
		for _, indexed := range []bool{false, true} {
			eng, label := OpenDB(g.DB), "bare"
			if indexed {
				registerAccessIndexes(t, eng, g.DB)
				label = "indexed"
			}
			got = append(got, planChoice(t, eng, g.Name+" "+label, g.Query))
		}
	}
	for _, indexed := range []bool{false, true} {
		eng, label := benchEngine(t, indexed), "bare"
		if indexed {
			label = "indexed"
		}
		tab, _ := eng.DB().Table("Y")
		var b, d int64
		for _, row := range tab.Rows() {
			if d = row.MustGet("d").AsInt(); d >= 0 {
				b = row.MustGet("b").AsInt()
				break
			}
		}
		for _, s := range benchShapes {
			q := s.query
			if strings.Contains(q, "%d") {
				q = fmt.Sprintf(q, b, d)
			}
			got = append(got, planChoice(t, eng, "bench "+s.name+" "+label, q))
		}
	}
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(planChoicesFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planChoicesFile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(planChoicesFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) != text {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(text, "\n")
		for i := 0; i < len(wl) || i < len(gl); i++ {
			var w, g string
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Errorf("line %d:\n want %s\n  got %s", i+1, w, g)
			}
		}
	}
}
