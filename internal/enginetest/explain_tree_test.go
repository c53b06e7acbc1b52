package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/core"
	"tmdb/internal/exec"
	"tmdb/internal/planner"
	"tmdb/internal/tmql"
)

// EXPLAIN and compilation both name a node's operator by asking the
// planner's resolver; this test holds them to it. For every golden × fixed
// strategy × join family × degree × access path × batch size, with indexes
// registered, each EXPLAIN line must name exactly the operator the compile
// walk built for that node.

// operator skips adapters and returns the operator beneath them.
func operator(op any) any {
	for {
		switch a := op.(type) {
		case *exec.RowsToBatch:
			op = a.It
		case *exec.BatchToRows:
			op = a.In
		default:
			return op
		}
	}
}

// explainedAs renders the EXPLAIN description of plan node n from the
// operator compiled for it, and returns the operators compiled for n's
// children (nil under an index-served operator, whose right operand or scan
// chain has no operators of its own).
func explainedAs(n algebra.Plan, op any, spec planner.PhysicalSpec) (desc string, kids []any, err error) {
	batch := fmt.Sprintf("[batch=%d]", spec.Batch)
	d := n.Describe()
	switch o := operator(op).(type) {
	case *exec.TableScan:
		return d, nil, nil
	case *exec.BatchTableScan:
		return d + batch, nil, nil
	case *exec.EvalScan:
		return d, nil, nil
	case *exec.Filter:
		return d, []any{o.In}, nil
	case *exec.BatchFilter:
		return d + batch, []any{o.In}, nil
	case *exec.Distinct:
		m, ok := o.In.(*exec.MapIter)
		if !ok {
			return "", nil, fmt.Errorf("Distinct over %T, want MapIter", o.In)
		}
		return d, []any{m.In}, nil
	case *exec.BatchDistinct:
		m, ok := o.In.(*exec.BatchMap)
		if !ok {
			return "", nil, fmt.Errorf("BatchDistinct over %T, want BatchMap", o.In)
		}
		return d + batch, []any{m.In}, nil
	case *exec.MapIter:
		return d, []any{o.In}, nil
	case *exec.BatchMap:
		return d + batch, []any{o.In}, nil
	case *exec.NLJoin:
		return "NL" + d, []any{o.L, o.R}, nil
	case *exec.HashJoin:
		return hashName(d, o.Degree, spec), []any{o.L, o.R}, nil
	case *exec.IndexJoin:
		return fmt.Sprintf("Idx%s using %s(%s)", d, o.Table, o.Index), []any{o.L, nil}, nil
	case *exec.NLNestJoin:
		return "NL" + d, []any{o.L, o.R}, nil
	case *exec.HashNestJoin:
		return hashName(d, o.Degree, spec), []any{o.L, o.R}, nil
	case *exec.MergeNestJoin:
		return "Merge" + d, []any{o.L, o.R}, nil
	case *exec.IndexNestJoin:
		return fmt.Sprintf("Idx%s using %s(%s)", d, o.Table, o.Index), []any{o.L, nil}, nil
	case *exec.NestIter:
		return d, []any{o.In}, nil
	case *exec.UnnestIter:
		return d, []any{o.In}, nil
	case *exec.SetOpIter:
		return d, []any{o.L, o.R}, nil
	default:
		return "", nil, fmt.Errorf("no EXPLAIN name for operator %T", o)
	}
}

// hashName is the EXPLAIN name of a hash-family operator compiled at the
// given degree: partitioned from degree 2, batch-native in every batched plan.
func hashName(d string, degree int, spec planner.PhysicalSpec) string {
	name := "Hash" + d
	if degree >= 2 {
		name = fmt.Sprintf("ParHash%s[%d]", d, degree)
	}
	if spec.Batch > 0 {
		name += fmt.Sprintf("[batch=%d]", spec.Batch)
	}
	return name
}

// indexScanLeaf descends the chain compileIndexScan rebuilds above the
// bucket rows (filters and wrapper maps) to the IndexScan at its leaf.
func indexScanLeaf(op any) (*exec.IndexScan, bool) {
	for {
		switch o := operator(op).(type) {
		case *exec.IndexScan:
			return o, true
		case *exec.Filter:
			op = o.In
		case *exec.Distinct:
			op = o.In
		case *exec.MapIter:
			op = o.In
		default:
			return nil, false
		}
	}
}

// matchTree walks plan and compiled tree together, consuming one EXPLAIN
// line per plan node in preorder, and returns the lines left over.
func matchTree(t *testing.T, n algebra.Plan, op any, spec planner.PhysicalSpec, lines []string) []string {
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
			lines = matchTree(t, ch, nil, planner.PhysicalSpec{}, lines)
		}
		return lines
	}
	if sel, ok := n.(*algebra.Select); ok && strings.HasPrefix(line, "IndexScan(") {
		leaf, ok := indexScanLeaf(op)
		if !ok {
			t.Errorf("EXPLAIN says %q, compiled %T without an IndexScan leaf", line, operator(op))
		} else if want := fmt.Sprintf("IndexScan(%s) using %s(%s)", leaf.Table, leaf.Table, leaf.Index); !strings.HasPrefix(line, want) {
			t.Errorf("EXPLAIN says %q, compiled %s", line, want)
		}
		return matchTree(t, sel.In, nil, spec, lines)
	}
	want, kids, err := explainedAs(n, op, spec)
	if err != nil {
		t.Fatalf("%s: %v", n.Describe(), err)
	}
	if line != want {
		t.Errorf("EXPLAIN says %q, the compiled %T renders as %q", line, operator(op), want)
	}
	children := n.Children()
	if len(kids) != len(children) {
		t.Fatalf("%s: %d compiled inputs for %d plan children", line, len(kids), len(children))
	}
	for i, ch := range children {
		lines = matchTree(t, ch, kids[i], spec, lines)
	}
	return lines
}

func TestExplainMatchesCompiledTree(t *testing.T) {
	fixed := []core.Strategy{core.StrategyNaive, core.StrategyNestJoin, core.StrategyKim, core.StrategyOuterJoin}
	impls := []planner.JoinImpl{planner.ImplNestedLoop, planner.ImplHash, planner.ImplMerge, planner.ImplIndex}
	checked := 0
	for _, g := range Goldens {
		eng := OpenDB(g.DB)
		registerAccessIndexes(t, eng, g.DB)
		bound, err := tmql.NewBinder(eng.Catalog()).Bind(tmql.MustParse(g.Query))
		if err != nil {
			t.Fatal(err)
		}
		est := planner.NewEstimatorStats(eng.Stats())
		for _, s := range fixed {
			plan, err := core.NewTranslator(eng.Catalog()).Translate(bound, s)
			if err != nil {
				continue
			}
			for _, ji := range impls {
				if planner.ImplInfeasible(plan, ji) != "" {
					continue
				}
				for _, degree := range []int{1, 2} {
					for _, access := range []planner.AccessPath{planner.AccessScan, planner.AccessIndex} {
						for _, batch := range []int{0, 64} {
							spec := planner.PhysicalSpec{Joins: ji, Degree: degree, Access: access, Batch: batch}
							t.Run(fmt.Sprintf("%s/%s/%s×%d/%s/b%d", g.Name, s, ji, degree, access, batch), func(t *testing.T) {
								tree, err := planner.New(exec.NewCtx(eng.DB()), spec).Compile(plan)
								if err != nil {
									t.Fatal(err)
								}
								var root any = tree.Rows
								if tree.Batches != nil {
									root = tree.Batches
								}
								lines := strings.Split(strings.TrimRight(est.Explain(plan, spec), "\n"), "\n")
								if rest := matchTree(t, plan, root, spec, lines); len(rest) != 0 {
									t.Errorf("%d EXPLAIN lines beyond the plan:\n%s", len(rest), strings.Join(rest, "\n"))
								}
							})
							checked++
						}
					}
				}
			}
		}
	}
	if checked < 1000 {
		t.Errorf("matrix shrank to %d combinations", checked)
	}
}
