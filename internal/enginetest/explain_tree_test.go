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

// EXPLAIN and compilation both read one resolved tree; this test holds the
// operator EXPLAIN names for each node to the one Compile builds from the
// same tree. For every golden × catalog
// × fixed strategy × logical alternative × join family × access path, each
// EXPLAIN line must name exactly the operator the compile walk built for that
// node, a narrowed scan's source — leading-label range or index lookup — and
// what an index-served selection's filter still checks included. The
// catalog axis runs each golden with its access indexes registered
// and, where it has any, again without them, so the index pins' fallbacks to
// scans and to the other join families are held to EXPLAIN too. The
// alternative axis runs every distinct logical alternative of each
// translation (as translated, §6 rewrite, join orders), so rewritten and
// reordered trees are held to it as well. A fused projection prints as its
// join with the output after an arrow, and an absorbed wrap prints no line:
// EXPLAIN writes both over the wrapped rows, so the check wraps what the
// compiled operators read back before comparing.

// fusedShapes counts the fused projections and absorbed wraps a walk met.
type fusedShapes struct{ fused, absorbed int }

// explainedAs renders the EXPLAIN description of plan node n from the
// operator compiled for it, and returns the plan nodes that operator reads
// (n's children, or the nest join's operands under a groupjoin) with the
// operators compiled for them (nil under an index join, whose right operand
// has no operators of its own).
func explainedAs(n algebra.Plan, op any) (desc string, inputs []algebra.Plan, kids []any, err error) {
	d, inputs := n.Describe(nil), n.Children()
	switch o := op.(type) {
	case *exec.TableScan:
		// A narrowed scan prints its source: the index the compiled scan
		// reads, or the range it cuts its chunks to.
		switch {
		case o.Ix != nil:
			d += fmt.Sprintf(" using %s(%s)", o.Table, o.Ix.Name())
			if o.Depth < len(o.Ix.Attrs()) {
				d += fmt.Sprintf(" prefix=%d", o.Depth)
			}
			if len(o.Points) > 1 {
				d += fmt.Sprintf(" points=%d", len(o.Points))
			}
		case o.Range.Bounded():
			d += fmt.Sprintf(" %s∈%s", n.Elem().Fields[0].Label, o.Range)
		}
		return d, inputs, nil, nil
	case *exec.EvalScan:
		return d, inputs, nil, nil
	case *exec.Filter:
		// The predicate the compiled filter checks: the selection's, or
		// what is left of it when an index lookup serves it, read off the
		// wrapped row where the join above binds the wrap's content.
		pred := "true"
		if o.Pred != nil {
			pred = tmql.Format(rewrap(o.Pred, o.Var, absorbedWrap(n, o)))
		}
		return fmt.Sprintf("Select[%s](%s)", pred, o.Var), inputs, []any{o.In}, nil
	case *exec.Map:
		if m, ok := n.(*algebra.Map); ok && m.Out != o.Out {
			// The identity map deduplicating a fused join's rows.
			return explainedAs(n, o.In)
		}
		return d, inputs, []any{o.In}, nil
	case *exec.Join:
		switch {
		case o.Test != nil:
			nj, ok := groupjoinOf(n)
			if !ok {
				return "", nil, nil, fmt.Errorf("groupjoin compiled for %T, not Map ∘ Select ∘ NestJoin", n)
			}
			d, inputs = nj.Describe(nil), nj.Children()
			i := strings.LastIndex(d, "](")
			d = d[:i] + " | " + tmql.Format(o.Test) + d[i:]
		case o.Out != nil:
			m, ok := n.(*algebra.Map)
			if !ok {
				return "", nil, nil, fmt.Errorf("fused projection compiled for %T, not a Map", n)
			}
			d, inputs = m.In.Describe(nil), m.In.Children()
			out := rewrap(o.Out, o.LVar, absorbedWrap(inputs[0], o.L))
			if o.Fn == nil {
				out = rewrap(out, o.RVar, absorbedWrap(inputs[1], o.R))
			}
			i := strings.LastIndex(d, "](")
			d = d[:i] + " → " + tmql.Format(out) + d[i:]
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

// absorbedWrap returns the label of the wrapper Map plan p chains down to
// through selections when the operators op compiled for p have no Map for
// it, the join above binding the wrap's content; "" otherwise.
func absorbedWrap(p algebra.Plan, op any) string {
	for {
		sel, ok := p.(*algebra.Select)
		if !ok {
			break
		}
		f, ok := op.(*exec.Filter)
		if !ok {
			return ""
		}
		p, op = sel.In, f.In
	}
	m, ok := p.(*algebra.Map)
	if !ok || algebra.WrapperLabel(m) == "" {
		return ""
	}
	if em, ok := op.(*exec.Map); ok && em.Out == m.Out {
		return ""
	}
	return algebra.WrapperLabel(m)
}

// rewrap reads e's free variable v as the wrapped row: v becomes v.w, as
// EXPLAIN writes it. w == "" leaves e as it is.
func rewrap(e tmql.Expr, v, w string) tmql.Expr {
	if w == "" {
		return e
	}
	return tmql.Subst(e, v, &tmql.FieldSel{X: &tmql.Var{Name: v}, Label: w})
}

// matchTree walks plan and compiled tree together, consuming one EXPLAIN
// line per plan node in preorder, and returns the lines left over. It counts
// the fused projections and absorbed wraps it meets into seen.
func matchTree(t *testing.T, n algebra.Plan, op any, lines []string, seen *fusedShapes) []string {
	t.Helper()
	if m, ok := n.(*algebra.Map); ok && op != nil && absorbedWrap(m, op) != "" {
		seen.absorbed++
		return matchTree(t, m.In, op, lines, seen)
	}
	if m, ok := n.(*algebra.Map); ok {
		in := op
		if em, ok := op.(*exec.Map); ok && em.Out != m.Out {
			in = em.In // the identity map deduplicating a fused join's rows
		}
		if j, ok := in.(*exec.Join); ok && j.Out != nil {
			seen.fused++
		}
	}
	if len(lines) == 0 {
		t.Fatalf("EXPLAIN ran out of lines at %s", n.Describe(nil))
	}
	line := strings.TrimLeft(lines[0], " ")
	line = line[:strings.LastIndex(line, "  (rows≈")]
	lines = lines[1:]
	if op == nil {
		// Beneath an index join: EXPLAIN keeps the logical subtree for its
		// estimates, and nothing is compiled for it.
		for _, ch := range n.Children() {
			lines = matchTree(t, ch, nil, lines, seen)
		}
		return lines
	}
	want, inputs, kids, err := explainedAs(n, op)
	if err != nil {
		t.Fatalf("%s: %v", n.Describe(nil), err)
	}
	if line != want {
		t.Errorf("EXPLAIN says %q, the compiled %T renders as %q", line, op, want)
	}
	if len(kids) != len(inputs) {
		t.Fatalf("%s: %d compiled inputs for %d plan inputs", line, len(kids), len(inputs))
	}
	for i, ch := range inputs {
		lines = matchTree(t, ch, kids[i], lines, seen)
	}
	return lines
}

func TestExplainMatchesCompiledTree(t *testing.T) {
	checked := 0
	var seen fusedShapes
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
			checked += explainMatchesCompiled(t, eng, name, g.Query, &seen)
		}
	}
	if checked < 1200 {
		t.Errorf("matrix shrank to %d combinations", checked)
	}
	if seen.fused < 300 || seen.absorbed < 300 {
		t.Errorf("only %d fused projections and %d absorbed wraps checked", seen.fused, seen.absorbed)
	}
}

// explainMatchesCompiled runs the EXPLAIN-versus-compiled-tree check for one
// query on eng under every fixed strategy × logical alternative × feasible
// join family × access path, one subtest each under prefix, counting into
// seen, and returns how many it ran.
func explainMatchesCompiled(t *testing.T, eng *engine.Engine, prefix, query string, seen *fusedShapes) int {
	est := planner.NewEstimatorStats(eng.Stats())
	return forEachCompiled(t, eng, prefix, query, func(t *testing.T, resolved *planner.Tree, tree exec.BatchIterator, _ exec.Rows) {
		matchExplain(t, est, resolved, tree, seen)
	})
}

// matchExplain holds the EXPLAIN of resolved to tree, compiled from it.
func matchExplain(t *testing.T, est *planner.Estimator, resolved *planner.Tree, tree exec.BatchIterator, seen *fusedShapes) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(est.Explain(resolved, nil), "\n"), "\n")
	if rest := matchTree(t, resolved.Plan(), tree, lines, seen); len(rest) != 0 {
		t.Errorf("%d EXPLAIN lines beyond the plan:\n%s", len(rest), strings.Join(rest, "\n"))
	}
}

// forEachCompiled resolves query on eng under every fixed strategy × logical
// alternative × feasible join family × access path and hands each resolved
// tree, the operators compiled from it and what the planner reports their
// root's rows to be to check, one subtest each under prefix. It returns how
// many it ran.
func forEachCompiled(t *testing.T, eng *engine.Engine, prefix, query string,
	check func(t *testing.T, resolved *planner.Tree, tree exec.BatchIterator, rows exec.Rows)) int {
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
				for _, access := range []planner.AccessPath{planner.AccessScan, planner.AccessIndex} {
					spec := planner.PhysicalSpec{Joins: ji, Access: access}
					resolved := est.Resolve(alt.Plan, spec)
					if resolved.Infeasible != "" {
						break
					}
					t.Run(fmt.Sprintf("%s/%s/%s/%s/%s", prefix, s, alt.Alt, ji, access), func(t *testing.T) {
						tree, rows, err := planner.Compile(exec.NewCtx(eng.DB()), resolved)
						if err != nil {
							t.Fatal(err)
						}
						check(t, resolved, tree, rows)
					})
					checked++
				}
			}
		}
	}
	return checked
}
