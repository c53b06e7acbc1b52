package algebra

import (
	"strings"
)

// Explain renders a plan tree as an indented multi-line string, one operator
// per line, children indented below their parent — the format printed by
// `tmql -explain` and by cmd/repro's plan listings.
func Explain(p Plan) string {
	var sb strings.Builder
	explain(&sb, p, 0)
	return sb.String()
}

func explain(sb *strings.Builder, p Plan, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(p.Describe(nil))
	sb.WriteByte('\n')
	for _, c := range p.Children() {
		explain(sb, c, depth+1)
	}
}

// Walk visits p and all descendants in preorder.
func Walk(p Plan, fn func(Plan) bool) {
	if p == nil || !fn(p) {
		return
	}
	for _, c := range p.Children() {
		Walk(c, fn)
	}
}

// CountOps returns the number of operator nodes per Describe()-prefix kind,
// used by tests asserting plan shapes (e.g. "the ∈ variant uses a SemiJoin
// and no NestJoin").
func CountOps(p Plan) map[string]int {
	out := make(map[string]int)
	Walk(p, func(n Plan) bool {
		switch n.(type) {
		case *Scan:
			out["Scan"]++
		case *Select:
			out["Select"]++
		case *Map:
			out["Map"]++
		case *Join:
			out[n.(*Join).Kind.String()]++
		case *NestJoin:
			out["NestJoin"]++
		case *Nest:
			if n.(*Nest).NullAware {
				out["Nest*"]++
			} else {
				out["Nest"]++
			}
		case *Unnest:
			out["Unnest"]++
		case *SetOp:
			out[n.(*SetOp).Kind.String()]++
		case *EvalNode:
			out["Eval"]++
		}
		return true
	})
	return out
}
