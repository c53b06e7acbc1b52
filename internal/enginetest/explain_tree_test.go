package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/core"
	"tmdb/internal/engine"
	"tmdb/internal/exec"
	"tmdb/internal/planner"
	"tmdb/internal/tmql"
)

// EXPLAIN and compilation both name a node's operator by asking the
// planner's resolver; this test holds them to it. For every golden × catalog
// × fixed strategy × logical alternative × join family × access path, each
// EXPLAIN line must name exactly the operator the compile walk built for that
// node. The catalog axis runs each golden with its access indexes registered
// and, where it has any, again without them, so the index pins' fallbacks to
// scans and to the other join families are held to EXPLAIN too. The
// alternative axis runs every distinct logical alternative of each
// translation (as translated, §6 rewrite, join orders), so rewritten and
// reordered trees are held to it as well.

// explainedAs renders the EXPLAIN description of plan node n from the
// operator compiled for it, and returns the plan nodes that operator reads
// (n's children, or the nest join's operands under a groupjoin) with the
// operators compiled for them (nil under an index-served operator, whose
// right operand or scan chain has no operators of its own).
func explainedAs(n algebra.Plan, op any) (desc string, inputs []algebra.Plan, kids []any, err error) {
	d, inputs := n.Describe(), n.Children()
	switch o := op.(type) {
	case *exec.TableScan:
		return d, inputs, nil, nil
	case *exec.EvalScan:
		return d, inputs, nil, nil
	case *exec.Filter:
		return d, inputs, []any{o.In}, nil
	case *exec.Map:
		return d, inputs, []any{o.In}, nil
	case *exec.Join:
		if o.Test != nil {
			nj, ok := groupjoinOf(n)
			if !ok {
				return "", nil, nil, fmt.Errorf("groupjoin compiled for %T, not Map ∘ Select ∘ NestJoin", n)
			}
			d, inputs = nj.Describe(), nj.Children()
			i := strings.LastIndex(d, "](")
			d = d[:i] + " | " + tmql.Format(o.Test) + d[i:]
		}
		switch o.Method {
		case exec.JoinIndex:
			scan, ok := inputs[1].(*algebra.Scan)
			if !ok {
				return "", nil, nil, fmt.Errorf("index join compiled over %T, not a stored table", inputs[1])
			}
			return fmt.Sprintf("Idx%s using %s(%s)", d, scan.Table, o.Ix.Name()), inputs, []any{o.L, nil}, nil
		case exec.JoinHash:
			return "Hash" + d, inputs, []any{o.L, o.R}, nil
		case exec.JoinMerge:
			return "Merge" + d, inputs, []any{o.L, o.R}, nil
		}
		return "NL" + d, inputs, []any{o.L, o.R}, nil
	case *exec.NestIter:
		return d, inputs, []any{o.In}, nil
	case *exec.UnnestIter:
		return d, inputs, []any{o.In}, nil
	case *exec.SetOpIter:
		return d, inputs, []any{o.L, o.R}, nil
	default:
		return "", nil, nil, fmt.Errorf("no EXPLAIN name for operator %T", o)
	}
}

// groupjoinOf returns the nest join at the bottom of the Map ∘ Select ∘
// NestJoin stack a groupjoin is compiled from.
func groupjoinOf(n algebra.Plan) (*algebra.NestJoin, bool) {
	if m, ok := n.(*algebra.Map); ok {
		if sel, ok := m.In.(*algebra.Select); ok {
			nj, ok := sel.In.(*algebra.NestJoin)
			return nj, ok
		}
	}
	return nil, false
}

// indexScanLeaf descends the chain compileIndexScan rebuilds above the
// bucket rows (filters and wrapper maps) to the IndexScan at its leaf.
func indexScanLeaf(op any) (*exec.IndexScan, bool) {
	for {
		switch o := op.(type) {
		case *exec.IndexScan:
			return o, true
		case *exec.Filter:
			op = o.In
		case *exec.Map:
			op = o.In
		default:
			return nil, false
		}
	}
}

// matchTree walks plan and compiled tree together, consuming one EXPLAIN
// line per plan node in preorder, and returns the lines left over.
func matchTree(t *testing.T, n algebra.Plan, op any, lines []string) []string {
	t.Helper()
	if len(lines) == 0 {
		t.Fatalf("EXPLAIN ran out of lines at %s", n.Describe())
	}
	line := strings.TrimLeft(lines[0], " ")
	line = line[:strings.LastIndex(line, "  (rows≈")]
	lines = lines[1:]
	if op == nil {
		// Beneath an index-served operator: EXPLAIN keeps the logical
		// subtree for its estimates, and nothing is compiled for it.
		for _, ch := range n.Children() {
			lines = matchTree(t, ch, nil, lines)
		}
		return lines
	}
	if sel, ok := n.(*algebra.Select); ok && strings.HasPrefix(line, "IndexScan(") {
		leaf, ok := indexScanLeaf(op)
		_, scan, chained := planner.AccessChain(sel)
		if !ok || !chained {
			t.Errorf("EXPLAIN says %q, compiled %T without an IndexScan leaf over a stored table", line, op)
		} else if want := fmt.Sprintf("IndexScan(%s) using %s(%s)", scan.Table, scan.Table, leaf.Ix.Name()); !strings.HasPrefix(line, want) {
			t.Errorf("EXPLAIN says %q, compiled %s", line, want)
		}
		return matchTree(t, sel.In, nil, lines)
	}
	want, inputs, kids, err := explainedAs(n, op)
	if err != nil {
		t.Fatalf("%s: %v", n.Describe(), err)
	}
	if line != want {
		t.Errorf("EXPLAIN says %q, the compiled %T renders as %q", line, op, want)
	}
	if len(kids) != len(inputs) {
		t.Fatalf("%s: %d compiled inputs for %d plan inputs", line, len(kids), len(inputs))
	}
	for i, ch := range inputs {
		lines = matchTree(t, ch, kids[i], lines)
	}
	return lines
}

func TestExplainMatchesCompiledTree(t *testing.T) {
	checked := 0
	for _, g := range Goldens {
		catalogs := []bool{true}
		if len(AccessIndexes[g.DB]) > 0 {
			catalogs = append(catalogs, false)
		}
		for _, indexed := range catalogs {
			eng := OpenDB(g.DB)
			name := g.Name + "/bare"
			if indexed {
				registerAccessIndexes(t, eng, g.DB)
				name = g.Name + "/indexed"
			}
			checked += explainMatchesCompiled(t, eng, name, g.Query)
		}
	}
	if checked < 1200 {
		t.Errorf("matrix shrank to %d combinations", checked)
	}
}

// explainMatchesCompiled runs the EXPLAIN-versus-compiled-tree check for one
// query on eng under every fixed strategy × logical alternative × feasible
// join family × access path, one subtest each under prefix, and returns how
// many it ran.
func explainMatchesCompiled(t *testing.T, eng *engine.Engine, prefix, query string) int {
	fixed := []core.Strategy{core.StrategyNaive, core.StrategyNestJoin, core.StrategyKim, core.StrategyOuterJoin}
	impls := []planner.JoinImpl{planner.ImplNestedLoop, planner.ImplHash, planner.ImplMerge, planner.ImplIndex}
	bound, err := tmql.NewBinder(eng.Catalog()).Bind(tmql.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	est := planner.NewEstimatorStats(eng.Stats())
	checked := 0
	for _, s := range fixed {
		tr := core.NewTranslator(eng.Catalog())
		plan, err := tr.Translate(bound, s)
		if err != nil {
			continue
		}
		sp := planner.StrategyPlan{Strategy: s.String(), Plan: plan, Graph: tr.JoinGraph()}
		alts := est.Alternatives(algebra.NewBuilder(eng.Catalog()), []planner.StrategyPlan{sp})
		for _, alt := range alts {
			for _, ji := range impls {
				if planner.ImplInfeasible(alt.Plan, ji) != "" {
					continue
				}
				for _, access := range []planner.AccessPath{planner.AccessScan, planner.AccessIndex} {
					spec := planner.PhysicalSpec{Joins: ji, Access: access}
					t.Run(fmt.Sprintf("%s/%s/%s/%s/%s", prefix, s, alt.Alt, ji, access), func(t *testing.T) {
						tree, err := planner.New(exec.NewCtx(eng.DB()), spec).Compile(alt.Plan)
						if err != nil {
							t.Fatal(err)
						}
						lines := strings.Split(strings.TrimRight(est.Explain(alt.Plan, spec), "\n"), "\n")
						if rest := matchTree(t, alt.Plan, tree, lines); len(rest) != 0 {
							t.Errorf("%d EXPLAIN lines beyond the plan:\n%s", len(rest), strings.Join(rest, "\n"))
						}
					})
					checked++
				}
			}
		}
	}
	return checked
}
