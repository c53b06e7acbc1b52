package exec

import (
	"fmt"
	"slices"

	"tmdb/internal/eval"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Compiled row programs for the batched operators and the join family. The
// expressions that dominate hot plans — field selections off the row
// variables, comparisons against literals or other fields, conjunctions of
// those, tuple constructors over them, and nest-join functions of that shape
// — are compiled once at Open into direct closures over value.Value, so the
// per-row loops skip the evaluator's tree walk entirely. Everything outside
// this subset falls back to the generic evaluator with a reused environment
// node (eval.Env.Rebind), which keeps semantics and error behavior exactly
// those of the row engine.
//
// Semantics parity: compiled comparisons go through eval.Apply — the same
// function the evaluator uses — and compiled field selection reproduces the
// evaluator's error messages verbatim, so a query errors identically whether
// its predicate compiled or not. Compiled programs — keys, residuals,
// projections and nest-join functions alike — do not advance the evaluator's
// step counter: EvalSteps measures evaluator work performed, and compiled
// loops genuinely perform none.

// scalar2 is a compiled scalar expression over up to two row variables.
type scalar2 func(a, b value.Value) (value.Value, error)

// pred2 is a compiled boolean expression over up to two row variables.
type pred2 func(a, b value.Value) (bool, error)

// compileScalar2 compiles e to a direct function of the rows bound to n1 and
// n2 (pass n2 = "" for single-variable contexts), or nil when e falls
// outside the compiled subset: literals, the row variables themselves, and
// field-selection chains over them.
func compileScalar2(e tmql.Expr, n1, n2 string) scalar2 {
	switch n := e.(type) {
	case *tmql.Lit:
		v := n.V
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
		x := compileScalar2(n.X, n1, n2)
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
	}
	return nil
}

// compilePred2 compiles a predicate to a direct boolean function, or nil
// when it falls outside the compiled subset: comparisons between compiled
// scalars and AND/OR combinations of compiled predicates (which always yield
// booleans, so the evaluator's short-circuit truthiness is reproduced
// exactly).
func compilePred2(e tmql.Expr, n1, n2 string) pred2 {
	b, ok := e.(*tmql.Binary)
	if !ok {
		return nil
	}
	switch b.Op {
	case tmql.OpAnd, tmql.OpOr:
		l, r := compilePred2(b.L, n1, n2), compilePred2(b.R, n1, n2)
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
	case tmql.OpEq, tmql.OpNe, tmql.OpLt, tmql.OpLe, tmql.OpGt, tmql.OpGe:
		ls, rs := compileScalar2(b.L, n1, n2), compileScalar2(b.R, n1, n2)
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

// rowPredicate evaluates a single-variable predicate per row: compiled when
// the shape allows, generic evaluation under a reused environment node
// otherwise. Not safe for concurrent use (the environment node is shared
// across rows).
type rowPredicate struct {
	c        *Ctx
	pred     tmql.Expr
	compiled pred2
	env      *eval.Env
}

func newRowPredicate(c *Ctx, pred tmql.Expr, varName string) *rowPredicate {
	p := &rowPredicate{c: c, pred: pred}
	if pred == nil {
		return p
	}
	if p.compiled = compilePred2(pred, varName, ""); p.compiled == nil {
		p.env = env1(varName, value.Value{})
	}
	return p
}

func (p *rowPredicate) eval(row value.Value) (bool, error) {
	if p.pred == nil {
		return true, nil
	}
	if p.compiled != nil {
		return p.compiled(row, value.Value{})
	}
	p.env.Rebind(row)
	return p.c.evalPred(p.pred, p.env)
}

// pairExpr is an expression over two row variables with the generic
// evaluator's fallback: two environment nodes built once and rebound per
// pair. pairPredicate and pairScalar share it and differ only in the
// compiled closure and in evalPred vs evalIn.
type pairExpr struct {
	c          *Ctx
	e          tmql.Expr
	envL, envR *eval.Env // envR is the head of the chain, envL its tail node
}

// useEnv sets up the fallback's environment nodes; only expressions outside
// the compiled subset need them.
func (p *pairExpr) useEnv(lvar, rvar string) {
	p.envL = env1(lvar, value.Value{})
	p.envR = p.envL.Bind(rvar, value.Value{})
}

// bind rebinds the two variables to l and r and returns the chain's head.
func (p *pairExpr) bind(l, r value.Value) *eval.Env {
	p.envL.Rebind(l)
	p.envR.Rebind(r)
	return p.envR
}

// pairPredicate is rowPredicate over two variables — the join residual form.
// It is a value so an operator can hold one without allocating when there is
// no residual (a nil e).
type pairPredicate struct {
	pairExpr
	compiled pred2
}

func newPairPredicate(c *Ctx, pred tmql.Expr, lvar, rvar string) pairPredicate {
	p := pairPredicate{pairExpr: pairExpr{c: c, e: pred}}
	if pred == nil {
		return p
	}
	if p.compiled = compilePred2(pred, lvar, rvar); p.compiled == nil {
		p.useEnv(lvar, rvar)
	}
	return p
}

func (p *pairPredicate) eval(l, r value.Value) (bool, error) {
	if p.e == nil {
		return true, nil
	}
	if p.compiled != nil {
		return p.compiled(l, r)
	}
	return p.c.evalPred(p.e, p.bind(l, r))
}

// any reports whether some row of bucket passes the predicate against l: the
// semi and anti joins' early-out probe. With no predicate, bucket membership
// already answers it.
func (p *pairPredicate) any(l value.Value, bucket []value.Value) (bool, error) {
	if p.e == nil {
		return len(bucket) > 0, nil
	}
	for _, r := range bucket {
		ok, err := p.eval(l, r)
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// pairScalar is pairPredicate's scalar twin — the nest-join function G(l, r)
// — compiled when the shape allows, generic evaluation otherwise. Not safe
// for concurrent use; each prober builds its own.
type pairScalar struct {
	pairExpr
	compiled scalar2
}

func newPairScalar(c *Ctx, fn tmql.Expr, lvar, rvar string) pairScalar {
	s := pairScalar{pairExpr: pairExpr{c: c, e: fn}}
	if s.compiled = compileScalar2(fn, lvar, rvar); s.compiled == nil {
		s.useEnv(lvar, rvar)
	}
	return s
}

func (s *pairScalar) eval(l, r value.Value) (value.Value, error) {
	if s.compiled != nil {
		return s.compiled(l, r)
	}
	return s.c.evalIn(s.e, s.bind(l, r))
}

// rowProjector evaluates a Map output expression per row: compiled for
// scalar-subset expressions and tuple constructors over them, generic with a
// reused environment otherwise.
type rowProjector struct {
	c        *Ctx
	out      tmql.Expr
	compiled scalar2
	env      *eval.Env
}

func newRowProjector(c *Ctx, out tmql.Expr, varName string) *rowProjector {
	p := &rowProjector{c: c, out: out}
	if p.compiled = compileProjector(out, varName); p.compiled == nil {
		p.env = env1(varName, value.Value{})
	}
	return p
}

// compileProjector extends the scalar subset with tuple constructors, the
// shape every SELECT projection bottoms out in. The labels are sorted once
// here: each field is evaluated in source order (so the first error is the
// evaluator's) and stored at its label's canonical position, and the tuple
// is wrapped as is — one allocation per row, no sort.
func compileProjector(out tmql.Expr, varName string) scalar2 {
	if s := compileScalar2(out, varName, ""); s != nil {
		return s
	}
	cons, ok := out.(*tmql.TupleCons)
	if !ok {
		return nil
	}
	sorted := make([]string, len(cons.Fields))
	scalars := make([]scalar2, len(cons.Fields))
	for i, f := range cons.Fields {
		if scalars[i] = compileScalar2(f.E, varName, ""); scalars[i] == nil {
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
	return func(a, b value.Value) (value.Value, error) {
		fs := make([]value.Field, len(scalars))
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

func (p *rowProjector) eval(row value.Value) (value.Value, error) {
	if p.compiled != nil {
		return p.compiled(row, value.Value{})
	}
	p.env.Rebind(row)
	return p.c.evalIn(p.out, p.env)
}

// keyEncoder appends the encoded join key of a row onto a caller
// scratch buffer: compiled extractors when every key expression is in the
// scalar subset, generic evaluation under a reused environment otherwise.
// value.AppendKey encodings are self-delimiting, so the concatenation is
// injective for a fixed key arity — two rows produce identical bytes iff
// their key tuples are Equal. Not safe for concurrent use.
type keyEncoder struct {
	c        *Ctx
	keys     []tmql.Expr
	compiled []scalar2
	env      *eval.Env
}

func newKeyEncoder(c *Ctx, keys []tmql.Expr, varName string) *keyEncoder {
	enc := &keyEncoder{c: c, keys: keys, compiled: make([]scalar2, len(keys))}
	for i, k := range keys {
		if enc.compiled[i] = compileScalar2(k, varName, ""); enc.compiled[i] == nil {
			enc.compiled = nil
			break
		}
	}
	if enc.compiled == nil {
		enc.env = env1(varName, value.Value{})
	}
	return enc
}

// appendKey appends row's encoded key onto buf and returns the extended
// slice.
func (e *keyEncoder) appendKey(buf []byte, row value.Value) ([]byte, error) {
	if e.compiled != nil {
		for _, s := range e.compiled {
			kv, err := s(row, value.Value{})
			if err != nil {
				return nil, err
			}
			buf = value.AppendKey(buf, kv)
		}
		return buf, nil
	}
	e.env.Rebind(row)
	for _, k := range e.keys {
		kv, err := e.c.evalIn(k, e.env)
		if err != nil {
			return nil, err
		}
		buf = value.AppendKey(buf, kv)
	}
	return buf, nil
}
