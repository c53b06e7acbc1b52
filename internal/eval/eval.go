// Package eval implements the reference (naive) semantics of TM expressions:
// tuple-at-a-time, nested-loop evaluation with correlated subqueries
// re-evaluated per outer binding — exactly the "nested-loop processing" the
// paper uses as its correctness baseline (§1, §6). Every optimizer strategy
// in internal/core is tested for equivalence against this evaluator.
package eval

import (
	"fmt"

	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Env is an immutable environment binding variable names to values.
type Env struct {
	name string
	val  value.Value
	next *Env
}

// Bind returns an environment extending e with name = v.
func (e *Env) Bind(name string, v value.Value) *Env {
	return &Env{name: name, val: v, next: e}
}

// Rebind replaces the value bound at this node in place. It exists for
// operator loops that bind the same variable once per row: reusing one node
// across rows avoids a per-row allocation. The caller must own the node (have
// created it with Bind) and must not rebind while an evaluation that received
// the environment is still in flight; evaluation never retains environments
// beyond the call, so rebinding between rows is safe.
func (e *Env) Rebind(v value.Value) { e.val = v }

// Lookup returns the binding of name, if any.
func (e *Env) Lookup(name string) (value.Value, bool) {
	for c := e; c != nil; c = c.next {
		if c.name == name {
			return c.val, true
		}
	}
	return value.Value{}, false
}

// Evaluator evaluates bound TM expressions against a database.
type Evaluator struct {
	db *storage.DB
	// Steps counts elementary evaluation steps (node visits); benchmarks use
	// it to report work done by nested-loop processing.
	Steps int64
	// Check, when set, is polled once per checkEverySteps node visits and
	// aborts evaluation with its error — the cancellation hook governed
	// queries install (exec.Governor.Err), reaching arbitrarily deep naive
	// evaluation without per-operator cooperation. Nil costs one compare per
	// visit.
	Check func() error
	// Args are the slot values of the query being evaluated: a slotted
	// literal evaluates to its argument (tmql.Lit.Value). Nil evaluates the
	// literals themselves.
	Args []value.Value
}

// checkEverySteps spaces out the Check polls; a power of two so the test is
// a mask.
const checkEverySteps = 256

// New returns an evaluator over db (nil db is allowed for closed
// expressions that reference no extensions).
func New(db *storage.DB) *Evaluator {
	return &Evaluator{db: db}
}

// Eval evaluates a closed expression.
func (ev *Evaluator) Eval(e tmql.Expr) (value.Value, error) {
	return ev.EvalEnv(e, nil)
}

// EvalEnv evaluates e under env.
func (ev *Evaluator) EvalEnv(e tmql.Expr, env *Env) (value.Value, error) {
	ev.Steps++
	if ev.Check != nil && ev.Steps&(checkEverySteps-1) == 0 {
		if err := ev.Check(); err != nil {
			return value.Value{}, err
		}
	}
	switch n := e.(type) {
	case *tmql.Lit:
		return n.Value(ev.Args), nil

	case *tmql.Var:
		if v, ok := env.Lookup(n.Name); ok {
			return v, nil
		}
		return value.Value{}, fmt.Errorf("eval: unbound variable %s", n.Name)

	case *tmql.TableRef:
		if ev.db == nil {
			return value.Value{}, fmt.Errorf("eval: no database for table %s", n.Name)
		}
		t, ok := ev.db.Table(n.Name)
		if !ok {
			return value.Value{}, fmt.Errorf("eval: unknown table %s", n.Name)
		}
		return t.AsSet(), nil

	case *tmql.FieldSel:
		x, err := ev.EvalEnv(n.X, env)
		if err != nil {
			return value.Value{}, err
		}
		if x.Kind() != value.KindTuple {
			return value.Value{}, fmt.Errorf("eval: field %s of non-tuple %s", n.Label, x)
		}
		f, ok := x.Get(n.Label)
		if !ok {
			return value.Value{}, fmt.Errorf("eval: tuple has no field %s", n.Label)
		}
		return f, nil

	case *tmql.TupleCons:
		fs := make([]value.Field, len(n.Fields))
		for i, f := range n.Fields {
			v, err := ev.EvalEnv(f.E, env)
			if err != nil {
				return value.Value{}, err
			}
			fs[i] = value.F(f.Label, v)
		}
		return value.TupleOf(fs...), nil

	case *tmql.SetCons:
		b := value.NewSetBuilder(len(n.Elems))
		for _, el := range n.Elems {
			v, err := ev.EvalEnv(el, env)
			if err != nil {
				return value.Value{}, err
			}
			b.Add(v)
		}
		return b.Build(), nil

	case *tmql.ListCons:
		es := make([]value.Value, len(n.Elems))
		for i, el := range n.Elems {
			v, err := ev.EvalEnv(el, env)
			if err != nil {
				return value.Value{}, err
			}
			es[i] = v
		}
		return value.ListOf(es...), nil

	case *tmql.Binary:
		return ev.evalBinary(n, env)

	case *tmql.Unary:
		x, err := ev.EvalEnv(n.X, env)
		if err != nil {
			return value.Value{}, err
		}
		switch n.Op {
		case tmql.OpNot:
			return value.Bool(!x.AsBool()), nil
		case tmql.OpNeg:
			if x.Kind() == value.KindInt {
				return value.Int(-x.AsInt()), nil
			}
			return value.Float(-x.AsFloat()), nil
		}
		return value.Value{}, fmt.Errorf("eval: bad unary op %s", n.Op)

	case *tmql.Agg:
		x, err := ev.EvalEnv(n.X, env)
		if err != nil {
			return value.Value{}, err
		}
		return value.Aggregate(n.Kind, x)

	case *tmql.Quant:
		over, err := ev.EvalEnv(n.Over, env)
		if err != nil {
			return value.Value{}, err
		}
		if over.Kind() != value.KindSet && over.Kind() != value.KindList {
			return value.Value{}, fmt.Errorf("eval: quantifier over non-collection %s", over)
		}
		for _, el := range over.Elems() {
			p, err := ev.EvalEnv(n.Pred, env.Bind(n.Var, el))
			if err != nil {
				return value.Value{}, err
			}
			holds := p.AsBool()
			if n.Kind == tmql.QExists && holds {
				return value.True, nil
			}
			if n.Kind == tmql.QForall && !holds {
				return value.False, nil
			}
		}
		return value.Bool(n.Kind == tmql.QForall), nil

	case *tmql.SFW:
		b := value.NewSetBuilder(0)
		if err := ev.evalFroms(n, 0, env, b); err != nil {
			return value.Value{}, err
		}
		return b.Build(), nil

	case *tmql.Let:
		d, err := ev.EvalEnv(n.Def, env)
		if err != nil {
			return value.Value{}, err
		}
		return ev.EvalEnv(n.Body, env.Bind(n.V, d))

	case *tmql.Unnest:
		x, err := ev.EvalEnv(n.X, env)
		if err != nil {
			return value.Value{}, err
		}
		if x.Kind() != value.KindSet {
			return value.Value{}, fmt.Errorf("eval: UNNEST of non-set %s", x)
		}
		for _, el := range x.Elems() {
			if el.Kind() != value.KindSet {
				return value.Value{}, fmt.Errorf("eval: UNNEST element is not a set: %s", el)
			}
		}
		return value.UnnestSet(x), nil
	}
	return value.Value{}, fmt.Errorf("eval: unhandled node %T", e)
}

// evalFroms performs the nested iteration over FROM items i.. of the block,
// appending result values to b — the literal reading of the paper's SFW
// semantics (§3.1).
func (ev *Evaluator) evalFroms(n *tmql.SFW, i int, env *Env, b *value.SetBuilder) error {
	if i == len(n.Froms) {
		ev.Steps++
		if n.Where != nil {
			p, err := ev.EvalEnv(n.Where, env)
			if err != nil {
				return err
			}
			if p.Kind() != value.KindBool {
				return fmt.Errorf("eval: WHERE yielded non-boolean %s", p)
			}
			if !p.AsBool() {
				return nil
			}
		}
		r, err := ev.EvalEnv(n.Result, env)
		if err != nil {
			return err
		}
		b.Add(r)
		return nil
	}
	src, err := ev.EvalEnv(n.Froms[i].Src, env)
	if err != nil {
		return err
	}
	if src.Kind() != value.KindSet && src.Kind() != value.KindList {
		return fmt.Errorf("eval: FROM operand is not a collection: %s", src)
	}
	for _, el := range src.Elems() {
		if err := ev.evalFroms(n, i+1, env.Bind(n.Froms[i].Var, el), b); err != nil {
			return err
		}
	}
	return nil
}

func (ev *Evaluator) evalBinary(n *tmql.Binary, env *Env) (value.Value, error) {
	// Short-circuit booleans first.
	if n.Op == tmql.OpAnd || n.Op == tmql.OpOr {
		l, err := ev.EvalEnv(n.L, env)
		if err != nil {
			return value.Value{}, err
		}
		lb := l.AsBool()
		if n.Op == tmql.OpAnd && !lb {
			return value.False, nil
		}
		if n.Op == tmql.OpOr && lb {
			return value.True, nil
		}
		r, err := ev.EvalEnv(n.R, env)
		if err != nil {
			return value.Value{}, err
		}
		return value.Bool(r.AsBool()), nil
	}

	l, err := ev.EvalEnv(n.L, env)
	if err != nil {
		return value.Value{}, err
	}
	r, err := ev.EvalEnv(n.R, env)
	if err != nil {
		return value.Value{}, err
	}
	return Apply(n.Op, l, r)
}

// Apply applies a non-boolean-connective binary operator to two values.
// Exposed so the physical operators in internal/exec share exactly these
// semantics.
func Apply(op tmql.Op, l, r value.Value) (value.Value, error) {
	switch op {
	case tmql.OpEq:
		return value.Bool(value.Equal(l, r)), nil
	case tmql.OpNe:
		return value.Bool(!value.Equal(l, r)), nil
	case tmql.OpLt:
		return value.Bool(value.Compare(l, r) < 0), nil
	case tmql.OpLe:
		return value.Bool(value.Compare(l, r) <= 0), nil
	case tmql.OpGt:
		return value.Bool(value.Compare(l, r) > 0), nil
	case tmql.OpGe:
		return value.Bool(value.Compare(l, r) >= 0), nil
	case tmql.OpIn:
		if r.Kind() != value.KindSet {
			return value.Value{}, fmt.Errorf("eval: IN over non-set %s", r)
		}
		return value.Bool(value.Contains(r, l)), nil
	case tmql.OpNotIn:
		if r.Kind() != value.KindSet {
			return value.Value{}, fmt.Errorf("eval: NOT IN over non-set %s", r)
		}
		return value.Bool(!value.Contains(r, l)), nil
	case tmql.OpSubset:
		return value.Bool(value.Subset(l, r)), nil
	case tmql.OpSubsetEq:
		return value.Bool(value.SubsetEq(l, r)), nil
	case tmql.OpSupset:
		return value.Bool(value.Superset(l, r)), nil
	case tmql.OpSupsetEq:
		return value.Bool(value.SupersetEq(l, r)), nil
	case tmql.OpUnion:
		return value.Union(l, r), nil
	case tmql.OpIntersect:
		return value.Intersect(l, r), nil
	case tmql.OpDiff:
		return value.Diff(l, r), nil
	case tmql.OpAdd, tmql.OpSub, tmql.OpMul, tmql.OpDiv, tmql.OpMod:
		return applyArith(op, l, r)
	}
	return value.Value{}, fmt.Errorf("eval: bad binary op %s", op)
}

func applyArith(op tmql.Op, l, r value.Value) (value.Value, error) {
	if !l.IsNumeric() || !r.IsNumeric() {
		return value.Value{}, fmt.Errorf("eval: arithmetic on non-numbers %s, %s", l, r)
	}
	bothInt := l.Kind() == value.KindInt && r.Kind() == value.KindInt
	if op == tmql.OpDiv {
		rf := r.AsFloat()
		if rf == 0 {
			return value.Value{}, fmt.Errorf("eval: division by zero")
		}
		return value.Float(l.AsFloat() / rf), nil
	}
	if op == tmql.OpMod {
		if !bothInt {
			return value.Value{}, fmt.Errorf("eval: %% needs integers")
		}
		if r.AsInt() == 0 {
			return value.Value{}, fmt.Errorf("eval: modulo by zero")
		}
		return value.Int(l.AsInt() % r.AsInt()), nil
	}
	if bothInt {
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case tmql.OpAdd:
			return value.Int(a + b), nil
		case tmql.OpSub:
			return value.Int(a - b), nil
		case tmql.OpMul:
			return value.Int(a * b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case tmql.OpAdd:
		return value.Float(a + b), nil
	case tmql.OpSub:
		return value.Float(a - b), nil
	case tmql.OpMul:
		return value.Float(a * b), nil
	}
	return value.Value{}, fmt.Errorf("eval: bad arithmetic op %s", op)
}
