package exec

import (
	"fmt"
	"slices"

	"tmdb/internal/eval"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Compiled row programs for the operators and the join family. Every
// expression an operator embeds — a filter or join residual, a projection, a
// join key, a nest-join function, a groupjoin test — has one form, a closure
// over up to two rows built once at Open. The expressions that dominate hot
// plans — field selections off the row variables, aggregates of them, tuple
// constructors over them, comparisons (set comparisons included) against
// literals or other fields, and conjunctions of those — compile to direct
// closures over value.Value, so the per-row loops skip the evaluator's tree
// walk entirely. Any other expression becomes, whole, a closure that runs
// the generic evaluator under environment nodes it owns and rebinds per row
// (eval.Env.Rebind), which keeps semantics and error behavior exactly those
// of the naive evaluator.
//
// Semantics parity: compiled comparisons go through eval.Apply — the same
// function the evaluator uses — and compiled field selection reproduces the
// evaluator's error messages verbatim, so a query errors identically whether
// its expression compiled or not. Compiled programs do not advance the
// evaluator's step counter: EvalSteps measures evaluator work performed, and
// compiled loops genuinely perform none. Closures that fall back to the
// evaluator reuse their environment nodes, so none is safe for concurrent
// use; each operator builds its own.

// scalar2 is a compiled scalar expression over up to two row variables.
type scalar2 func(a, b value.Value) (value.Value, error)

// pred2 is a compiled boolean expression over up to two row variables.
type pred2 func(a, b value.Value) (bool, error)

// compile returns e as a function of the rows bound to n1 and n2 (pass
// n2 = "" for single-variable contexts): compiled when e is in the subset,
// the generic evaluator otherwise. It never returns nil.
func compile(c *Ctx, e tmql.Expr, n1, n2 string) scalar2 {
	if s := compileScalar2(e, c.Ev.Args, n1, n2); s != nil {
		return s
	}
	return evaluated(c, e, n1, n2)
}

// compilePred is compile for a predicate: compiled when e is in the
// predicate subset, otherwise the generic evaluator, whose answer must be a
// boolean. A nil predicate passes every row.
func compilePred(c *Ctx, e tmql.Expr, n1, n2 string) pred2 {
	if e == nil {
		return func(value.Value, value.Value) (bool, error) { return true, nil }
	}
	if p := compilePred2(e, c.Ev.Args, n1, n2); p != nil {
		return p
	}
	s := evaluated(c, e, n1, n2)
	return func(a, b value.Value) (bool, error) {
		v, err := s(a, b)
		if err != nil {
			return false, err
		}
		if v.Kind() != value.KindBool {
			return false, fmt.Errorf("exec: predicate yielded %s, not BOOL", v)
		}
		return v.AsBool(), nil
	}
}

// evaluated is the fallback form of e: the generic evaluator under two
// environment nodes, built once and rebound per call (n2's node heads the
// chain; with n2 = "" it binds a name no expression can reference).
func evaluated(c *Ctx, e tmql.Expr, n1, n2 string) scalar2 {
	env1 := (*eval.Env)(nil).Bind(n1, value.Value{})
	env2 := env1.Bind(n2, value.Value{})
	return func(a, b value.Value) (value.Value, error) {
		env1.Rebind(a)
		env2.Rebind(b)
		return c.Ev.EvalEnv(e, env2)
	}
}

// compileScalar2 compiles e to a direct function of the rows bound to n1 and
// n2, or nil when e falls outside the compiled subset: literals, the row
// variables themselves, field-selection chains over them, aggregates of
// those, and tuple constructors over them. A slotted literal is its argument
// in args, the query's slot values, read here once (tmql.Lit.Value).
func compileScalar2(e tmql.Expr, args []value.Value, n1, n2 string) scalar2 {
	switch n := e.(type) {
	case *tmql.Lit:
		v := n.Value(args)
		return func(value.Value, value.Value) (value.Value, error) { return v, nil }
	case *tmql.Var:
		if n.Name == n1 {
			return func(a, _ value.Value) (value.Value, error) { return a, nil }
		}
		if n2 != "" && n.Name == n2 {
			return func(_, b value.Value) (value.Value, error) { return b, nil }
		}
		return nil
	case *tmql.FieldSel:
		x := compileScalar2(n.X, args, n1, n2)
		if x == nil {
			return nil
		}
		label := n.Label
		return func(a, b value.Value) (value.Value, error) {
			xv, err := x(a, b)
			if err != nil {
				return value.Value{}, err
			}
			if xv.Kind() != value.KindTuple {
				return value.Value{}, fmt.Errorf("eval: field %s of non-tuple %s", label, xv)
			}
			f, ok := xv.Get(label)
			if !ok {
				return value.Value{}, fmt.Errorf("eval: tuple has no field %s", label)
			}
			return f, nil
		}
	case *tmql.Agg:
		x := compileScalar2(n.X, args, n1, n2)
		if x == nil {
			return nil
		}
		kind := n.Kind
		return func(a, b value.Value) (value.Value, error) {
			xv, err := x(a, b)
			if err != nil {
				return value.Value{}, err
			}
			return value.Aggregate(kind, xv)
		}
	case *tmql.TupleCons:
		return compileTuple(n, args, n1, n2)
	}
	return nil
}

// compileTuple compiles a tuple constructor, the shape every SELECT
// projection bottoms out in. The labels are sorted once here: each field is
// evaluated in source order (so the first error is the evaluator's) and
// stored at its label's canonical position, and the tuple is wrapped as is,
// with no sort. The tuples' fields are cut from slabs holding the fields of
// up to maxSlabTuples tuples, each slab twice the last, so a projection
// allocates once per slab rather than once per row.
func compileTuple(cons *tmql.TupleCons, args []value.Value, n1, n2 string) scalar2 {
	sorted := make([]string, len(cons.Fields))
	scalars := make([]scalar2, len(cons.Fields))
	for i, f := range cons.Fields {
		if scalars[i] = compileScalar2(f.E, args, n1, n2); scalars[i] == nil {
			return nil
		}
		sorted[i] = f.Label
	}
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil // duplicate labels: the evaluator reports them
		}
	}
	pos := make([]int, len(cons.Fields))
	for i, f := range cons.Fields {
		pos[i], _ = slices.BinarySearch(sorted, f.Label)
	}
	var slab []value.Field
	size := len(scalars) // the next slab's fields
	return func(a, b value.Value) (value.Value, error) {
		if len(slab) < len(scalars) {
			slab, size = make([]value.Field, size), min(2*size, maxSlabTuples*len(scalars))
		}
		fs := slab[:len(scalars):len(scalars)]
		slab = slab[len(scalars):]
		for i, s := range scalars {
			fv, err := s(a, b)
			if err != nil {
				return value.Value{}, err
			}
			fs[pos[i]] = value.F(sorted[pos[i]], fv)
		}
		return value.CanonicalTuple(fs), nil
	}
}

// maxSlabTuples bounds the tuples whose fields compileTuple allocates at
// once: a kept tuple keeps its slab alive.
const maxSlabTuples = 64

// compilePred2 compiles a predicate to a direct boolean function, or nil
// when it falls outside the compiled subset: comparisons — scalar, set
// membership and set inclusion — between compiled scalars and AND/OR
// combinations of compiled predicates (which always yield booleans, so the
// evaluator's short-circuit truthiness is reproduced exactly).
func compilePred2(e tmql.Expr, args []value.Value, n1, n2 string) pred2 {
	b, ok := e.(*tmql.Binary)
	if !ok {
		return nil
	}
	switch {
	case b.Op == tmql.OpAnd || b.Op == tmql.OpOr:
		l, r := compilePred2(b.L, args, n1, n2), compilePred2(b.R, args, n1, n2)
		if l == nil || r == nil {
			return nil
		}
		and := b.Op == tmql.OpAnd
		return func(a, c value.Value) (bool, error) {
			lb, err := l(a, c)
			if err != nil {
				return false, err
			}
			if lb != and { // false AND _, true OR _ short-circuit
				return lb, nil
			}
			return r(a, c)
		}
	case compiledComparison(b.Op):
		ls, rs := compileScalar2(b.L, args, n1, n2), compileScalar2(b.R, args, n1, n2)
		if ls == nil || rs == nil {
			return nil
		}
		op := b.Op
		return func(a, c value.Value) (bool, error) {
			lv, err := ls(a, c)
			if err != nil {
				return false, err
			}
			rv, err := rs(a, c)
			if err != nil {
				return false, err
			}
			v, err := eval.Apply(op, lv, rv)
			if err != nil {
				return false, err
			}
			return v.AsBool(), nil
		}
	}
	return nil
}

// compiledComparison reports whether op is a comparison compilePred2
// compiles: scalar comparisons, set membership and set inclusion.
func compiledComparison(op tmql.Op) bool {
	switch op {
	case tmql.OpEq, tmql.OpNe, tmql.OpLt, tmql.OpLe, tmql.OpGt, tmql.OpGe,
		tmql.OpIn, tmql.OpNotIn, tmql.OpSubset, tmql.OpSubsetEq, tmql.OpSupset, tmql.OpSupsetEq:
		return true
	}
	return false
}

// filterRows appends the rows that pass p to out[:0], in input order,
// retaining out's capacity.
func filterRows(p pred2, rows, out []value.Value) ([]value.Value, error) {
	out = out[:0]
	for _, v := range rows {
		keep, err := p(v, value.Value{})
		if err != nil {
			return out, err
		}
		if keep {
			out = append(out, v)
		}
	}
	return out, nil
}

// keyEncoder appends the encoded join key of a row onto a caller scratch
// buffer, one compiled key expression after another. value.AppendKey
// encodings are self-delimiting, so the concatenation is injective for a
// fixed key arity — two rows produce identical bytes iff their key tuples
// are Equal.
type keyEncoder []scalar2

func newKeyEncoder(c *Ctx, keys []tmql.Expr, varName string) keyEncoder {
	enc := make(keyEncoder, len(keys))
	for i, k := range keys {
		enc[i] = compile(c, k, varName, "")
	}
	return enc
}

// appendKey appends row's encoded key onto buf and returns the extended
// slice.
func (e keyEncoder) appendKey(buf []byte, row value.Value) ([]byte, error) {
	for _, s := range e {
		kv, err := s(row, value.Value{})
		if err != nil {
			return nil, err
		}
		buf = value.AppendKey(buf, kv)
	}
	return buf, nil
}
