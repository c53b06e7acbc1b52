package engine

import (
	"context"
	"fmt"

	"tmdb/internal/eval"
	"tmdb/internal/faultinject"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Mutation entry points. A write costs what it changes: storage advances the
// table's data epoch and copies the row slice once, and that is all — cached
// plans stay valid (they hold no rows, and every plan returns the same
// answer), and statistics are allowed to drift until the catalog's bound
// recollects them. The engine wrappers give the REPL and embedders a typed,
// typechecked surface: literals are parsed, bound, and evaluated with the
// naive evaluator; delete predicates are bound against the table's element
// type and run as a query over snapshots (never under the table's lock, so
// predicates may freely subquery any table, including the one being mutated).

// InsertValue inserts one tuple into a sealed table, reporting whether it
// was actually added (false: already present, set semantics).
func (e *Engine) InsertValue(table string, v value.Value) (bool, error) {
	tab, ok := e.db.Table(table)
	if !ok {
		return false, fmt.Errorf("engine: unknown table %s", table)
	}
	if err := faultinject.Hit(faultinject.PointMutationEpoch); err != nil {
		return false, err
	}
	return tab.InsertSealed(v)
}

// Insert parses src as a closed TM expression (typically a tuple
// constructor), evaluates it, and inserts the value into the table.
func (e *Engine) Insert(table, src string) (bool, error) {
	expr, err := tmql.Parse(src)
	if err != nil {
		return false, err
	}
	bound, err := tmql.NewBinder(e.cat).Bind(expr)
	if err != nil {
		return false, err
	}
	v, err := eval.New(e.db).Eval(bound)
	if err != nil {
		return false, err
	}
	return e.InsertValue(table, v)
}

// DeleteValue deletes one tuple (by value equality) from a sealed table,
// reporting whether it was present.
func (e *Engine) DeleteValue(table string, v value.Value) (bool, error) {
	tab, ok := e.db.Table(table)
	if !ok {
		return false, fmt.Errorf("engine: unknown table %s", table)
	}
	if err := faultinject.Hit(faultinject.PointMutationEpoch); err != nil {
		return false, err
	}
	return tab.Delete(v)
}

// Delete removes every tuple of the table satisfying the predicate, with
// varName bound to the candidate tuple (e.g. Delete("EMP", "e",
// "e.sal > 4000")). It returns the number of tuples removed. The victims are
// the result of the query SELECT v FROM table v WHERE pred, planned and
// executed like any other (an index scan when an index covers the predicate)
// over snapshots, then deleted in one batch — so the predicate may contain
// subqueries over any table. The victim plan never repeats and is kept out
// of the plan cache.
func (e *Engine) Delete(table, varName, predSrc string) (int, error) {
	tab, ok := e.db.Table(table)
	if !ok {
		return 0, fmt.Errorf("engine: unknown table %s", table)
	}
	expr, err := tmql.Parse(predSrc)
	if err != nil {
		return 0, err
	}
	elem, err := e.cat.ElementType(table)
	if err != nil {
		return 0, err
	}
	b := tmql.NewBinder(e.cat)
	pred, err := b.BindIn(expr, tmql.VarBinding{Name: varName, Type: elem})
	if err != nil {
		return 0, err
	}
	if !types.AssignableTo(pred.Type(), types.Bool) {
		return 0, fmt.Errorf("engine: delete predicate must be BOOL, got %s", pred.Type())
	}
	victims, err := b.Bind(&tmql.SFW{
		Result: &tmql.Var{Name: varName},
		Froms:  []tmql.FromItem{{Var: varName, Src: &tmql.TableRef{Name: table}}},
		Where:  pred,
	})
	if err != nil {
		return 0, err
	}
	res, err := e.execBound(context.Background(), &query{expr: victims, tables: tmql.Tables(victims)}, Options{}, true)
	if err != nil {
		return 0, err
	}
	if err := faultinject.Hit(faultinject.PointMutationEpoch); err != nil {
		return 0, err
	}
	return tab.DeleteRows(res.Value.Elems())
}

// DropTable unregisters the table from the engine's database, invalidating
// its cached plans and marking its statistics stale. In-flight queries
// holding row snapshots finish unaffected; subsequent executions (including
// prepared-statement re-executions bound before the drop) fail with a typed
// *TableDroppedError — matched with errors.Is(err, ErrTableDropped) — rather
// than a panic or an untyped message.
func (e *Engine) DropTable(table string) error {
	if err := faultinject.Hit(faultinject.PointMutationEpoch); err != nil {
		return err
	}
	if !e.db.Drop(table) {
		return fmt.Errorf("engine: unknown table %s", table)
	}
	e.cache.invalidateTable(table)
	e.statsCat.MarkStale(table)
	return nil
}

// CreateIndex registers (and builds) a persistent hash index on the table's
// ordered attribute list — one attribute for the classic equi-key index,
// several for a composite index whose every prefix is probeable. The data is
// unchanged — statistics stay valid — but new physical candidates (the
// idxjoin family and the idxscan access path) now exist, so cached plans
// reading the table are invalidated to let the optimizer reconsider.
func (e *Engine) CreateIndex(table string, attrs ...string) error {
	if err := faultinject.Hit(faultinject.PointMutationEpoch); err != nil {
		return err
	}
	if err := e.db.CreateIndex(table, attrs...); err != nil {
		return err
	}
	e.cache.invalidateTable(table)
	return nil
}

// DropIndex unregisters the persistent index on the table's ordered attribute
// list. Like CreateIndex it leaves the data (and so the epoch and statistics)
// untouched but sweeps the table's cached plans: a plan probing the dropped
// index must not be served again. A query compiled before the drop probes
// the copy-on-write index snapshot it resolved, and one compiled after it
// falls back to scans or builds, so concurrent index churn never surfaces as
// a query error.
func (e *Engine) DropIndex(table string, attrs ...string) error {
	if err := faultinject.Hit(faultinject.PointMutationEpoch); err != nil {
		return err
	}
	dropped, err := e.db.DropIndex(table, attrs...)
	if err != nil {
		return err
	}
	if !dropped {
		return fmt.Errorf("engine: no index %s(%s)", table, storage.IndexName(attrs))
	}
	e.cache.invalidateTable(table)
	return nil
}
