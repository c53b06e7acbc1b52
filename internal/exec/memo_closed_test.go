package exec

import (
	"context"
	"errors"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/faultinject"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
)

// exprs parses each source into an expression.
func exprs(srcs ...string) []tmql.Expr {
	out := make([]tmql.Expr, len(srcs))
	for i, s := range srcs {
		out[i] = pred(s)
	}
	return out
}

// scanOf is a scan of table.
func scanOf(ctx *Ctx, table string) *TableScan { return &TableScan{Ctx: ctx, Table: table} }

// keyed completes j as method over the equi-key lk = rk: keys under JoinHash,
// the whole predicate as residual under JoinNL, the oracle.
func keyed(j *Join, method JoinMethod, lk, rk string) *Join {
	j.Method = method
	if method == JoinHash {
		j.LKeys, j.RKeys = exprs(lk), exprs(rk)
	} else {
		j.Residual = pred(lk + " = " + rk)
	}
	return j
}

// chain3Inner is the groupjoin of Y with Z of the chain3 statement: the Y
// rows whose c is within the c's of the Z rows sharing their d.
func chain3Inner(ctx *Ctx, method JoinMethod) *Join {
	return keyed(&Join{
		Ctx: ctx, L: scanOf(ctx, "Y"), R: scanOf(ctx, "Z"), LVar: "y", RVar: "z",
		Fn: pred("z.c"), Label: "zs", Test: pred("y.c SUBSETEQ zs"),
	}, method, "y.d", "z.d")
}

// chain3 is the chain3 statement as the planner compiles it: X grouped over
// the groupjoin of Y with Z, whose build is a closed subtree of two tables.
func chain3(ctx *Ctx, method JoinMethod) *Join {
	return keyed(&Join{
		Ctx: ctx, L: scanOf(ctx, "X"), R: chain3Inner(ctx, method), LVar: "x", RVar: "y",
		Fn: pred("y.a"), Label: "ys", Test: pred("x.a SUBSETEQ ys"),
	}, method, "x.b", "y.b")
}

// wrapped is a scan of table wrapped as the block builder wraps a FROM
// item, (v = v) bound to rel, under a filter on it when filter is not empty.
func wrapped(ctx *Ctx, table, v, rel, filter string) BatchIterator {
	var it BatchIterator = &Map{Ctx: ctx, In: scanOf(ctx, table), Var: v, Out: pred("(" + v + " = " + v + ")")}
	if filter != "" {
		it = &Filter{Ctx: ctx, In: it, Var: rel, Pred: pred(filter)}
	}
	return it
}

// flatJoin is the flat statement as the planner compiles it: two filtered
// wraps joined on j1.x.b = j2.y.d.
func flatJoin(ctx *Ctx, method JoinMethod) *Join {
	return keyed(&Join{
		Ctx: ctx, Kind: algebra.JoinInner, LVar: "j1", RVar: "j2",
		L: wrapped(ctx, "X", "x", "j1", "j1.x.b < 250"), R: wrapped(ctx, "Y", "y", "j2", "j2.y.a < 3"),
	}, method, "j1.x.b", "j2.y.d")
}

// buildOver is a hash join probing an empty left input against a build over
// r on keys: what the key tests look up.
func buildOver(ctx *Ctx, r BatchIterator, rvar string, keys ...string) *Join {
	return &Join{Ctx: ctx, Method: JoinHash, L: scanOf(ctx, "X"), R: r, LVar: "l", RVar: rvar,
		LKeys: exprs(keys...), RKeys: exprs(keys...)}
}

// tableMemo returns the memo of table's current snapshot.
func tableMemo(db *storage.DB, table string) *storage.Memo {
	t, _ := db.Table(table)
	_, m := t.Snapshot()
	return m
}

// TestMemoKeySoundness pins the build key over near-miss subtrees: each
// pair differs in one thing that changes the rows or their keys, and must
// get a different key; a pair that differs only by variable names computes
// the same table and must get the same key.
func TestMemoKeySoundness(t *testing.T) {
	db := memoDB()
	ctx := NewCtx(db)
	filterY := func(v, p string) BatchIterator {
		return &Filter{Ctx: ctx, In: scanOf(ctx, "Y"), Var: v, Pred: pred(p)}
	}
	nest := func(label, test string, kind algebra.JoinKind, residual string) BatchIterator {
		j := chain3Inner(ctx, JoinHash)
		j.Label, j.Test, j.Kind = label, pred(test), kind
		if residual != "" {
			j.Residual = pred(residual)
		}
		return j
	}
	flat := func(kind algebra.JoinKind, residual string) BatchIterator {
		j := flatJoin(ctx, JoinHash)
		j.Kind = kind
		if residual != "" {
			j.Residual = pred(residual)
		}
		return j
	}
	mapY := func(distinct bool) BatchIterator {
		return &Map{Ctx: ctx, In: scanOf(ctx, "Y"), Var: "y", Out: pred("(a = y.a, b = y.b)"), Distinct: distinct}
	}
	pairs := []struct {
		name string
		a, b *Join
		same bool
	}{
		{"int_vs_float_literal", buildOver(ctx, filterY("y", "y.a < 1"), "y", "y.b"), buildOver(ctx, filterY("y", "y.a < 1.0"), "y", "y.b"), false},
		{"int_vs_float_zero", buildOver(ctx, filterY("y", "y.a < 0"), "y", "y.b"), buildOver(ctx, filterY("y", "y.a < 0.0"), "y", "y.b"), false},
		{"nest_label", buildOver(ctx, nest("zs", "y.c SUBSETEQ zs", 0, ""), "y", "y.b"), buildOver(ctx, nest("zt", "y.c SUBSETEQ zt", 0, ""), "y", "y.b"), false},
		{"distinct", buildOver(ctx, mapY(true), "y", "y.b"), buildOver(ctx, mapY(false), "y", "y.b"), false},
		{"semi_vs_anti", buildOver(ctx, flat(algebra.JoinSemi, ""), "j1", "j1.x.b"), buildOver(ctx, flat(algebra.JoinAnti, ""), "j1", "j1.x.b"), false},
		{"residual", buildOver(ctx, nest("zs", "y.c SUBSETEQ zs", 0, "y.a < z.c"), "y", "y.b"), buildOver(ctx, nest("zs", "y.c SUBSETEQ zs", 0, ""), "y", "y.b"), false},
		{"key_order", buildOver(ctx, scanOf(ctx, "Y"), "y", "y.b", "y.d"), buildOver(ctx, scanOf(ctx, "Y"), "y", "y.d", "y.b"), false},
		{"field_path", buildOver(ctx, filterY("y", "y.a < 3"), "y", "y.b"), buildOver(ctx, filterY("y", "y.b < 3"), "y", "y.b"), false},
		{"table", buildOver(ctx, scanOf(ctx, "Y"), "y", "y.d"), buildOver(ctx, scanOf(ctx, "Z"), "y", "y.d"), false},
		{"test", buildOver(ctx, nest("zs", "y.c SUBSETEQ zs", 0, ""), "y", "y.b"), buildOver(ctx, nest("zs", "y.c SUPSETEQ zs", 0, ""), "y", "y.b"), false},
		{"variable_names", buildOver(ctx, flat(algebra.JoinInner, ""), "j3", "j3.x.b"),
			func() *Join {
				j := keyed(&Join{
					Ctx: ctx, Kind: algebra.JoinInner, LVar: "l", RVar: "r",
					L: wrapped(ctx, "X", "u", "l", "l.x.b < 250"),
					R: &Filter{Ctx: ctx, In: &Map{Ctx: ctx, In: scanOf(ctx, "Y"), Var: "w", Out: pred("(y = w)")}, Var: "r", Pred: pred("r.y.a < 3")},
				}, JoinHash, "l.x.b", "r.y.d")
				j.L.(*Filter).In.(*Map).Out = pred("(x = u)")
				return buildOver(ctx, j, "k", "k.x.b")
			}(), true},
	}
	for _, p := range pairs {
		_, ka := buildKeyOf(t, p.a)
		_, kb := buildKeyOf(t, p.b)
		if (ka == kb) != p.same {
			t.Errorf("%s: same key %v, want %v", p.name, ka == kb, p.same)
		}
	}
}

// TestMemoServesClosedSubtrees runs chain3 and the flat join twice per
// snapshot and across writes to each table they read: every result equals
// nested loops over the same snapshots, the second execution probes the
// table the first kept, a write serves a new one, and the entry lives in
// the memo of the newest snapshot read.
func TestMemoServesClosedSubtrees(t *testing.T) {
	shapes := []struct {
		name   string
		join   func(*Ctx, JoinMethod) *Join
		writes []string
	}{
		{"chain3", chain3, []string{"Z", "Y", "Z"}},
		{"flat", flatJoin, []string{"Y", "X"}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			db := memoDB()
			run := func() (kept *hashTable, home *storage.Memo) {
				t.Helper()
				got := collect(t, sh.join(NewCtx(db), JoinHash)).String()
				if want := collect(t, sh.join(NewCtx(db), JoinNL)).String(); got != want {
					t.Fatalf("hash join differs from nested loops:\ngot  %s\nwant %s", got, want)
				}
				home, _ = buildKeyOf(t, sh.join(NewCtx(db), JoinHash))
				return keptBuild(t, sh.join(NewCtx(db), JoinHash)), home
			}
			kept1, _ := run()
			kept2, _ := run()
			if kept1 == nil || kept1 != kept2 {
				t.Fatalf("the build was not kept and served on its snapshots (%p, %p)", kept1, kept2)
			}
			for _, table := range sh.writes {
				tab, _ := db.Table(table)
				if ok, err := tab.Delete(tab.AsSet().Elems()[0]); err != nil || !ok {
					t.Fatalf("deleting a row of %s: %v", table, err)
				}
				kept3, home := run()
				if table == "X" {
					// The probing side: the build does not read it.
					if kept3 != kept1 {
						t.Error("a write to the probing side's table replaced the build")
					}
					continue
				}
				if kept3 == nil || kept3 == kept1 {
					t.Fatalf("after a write to %s the old build was served", table)
				}
				if home != tableMemo(db, table) {
					t.Errorf("after a write to %s the build is not kept in its memo", table)
				}
				kept1 = kept3
			}
		})
	}
}

// TestMemoClosedGovernanceParity pins that a query served a kept build over
// a closed subtree is governed as the fill was: chain3 fails identically
// cold and warm under a build budget just below its cold total, an armed
// hash.build rule fires identically, and a subtree that needs the evaluator
// is never kept, so its evaluator steps are spent warm as cold.
func TestMemoClosedGovernanceParity(t *testing.T) {
	gov := NewGovernor(context.Background(), Limits{MaxBuildBytes: 1 << 40})
	if _, err := CollectBatchesGoverned(gov, chain3(NewCtxGoverned(memoDB(), gov), JoinHash), AnyRows); err != nil {
		t.Fatal(err)
	}
	total := gov.BuildBytes()
	run := func(db *storage.DB, limit int64) error {
		gov := NewGovernor(context.Background(), Limits{MaxBuildBytes: limit})
		_, err := CollectBatchesGoverned(gov, chain3(NewCtxGoverned(db, gov), JoinHash), AnyRows)
		return err
	}
	db := memoDB()
	cold := run(db, total-1)
	collect(t, chain3(NewCtx(db), JoinHash))
	warm := run(db, total-1)
	if !errors.Is(cold, ErrBudgetExceeded) || warm == nil || cold.Error() != warm.Error() {
		t.Errorf("under a build budget of %d of %d: cold %v, warm %v", total-1, total, cold, warm)
	}
	if err := run(db, total); err != nil {
		t.Errorf("warm at a budget of the cold total: %v", err)
	}

	fault := func(db *storage.DB) error {
		defer faultinject.Activate(faultinject.Schedule{Seed: 1, Rules: []faultinject.Rule{
			{Point: faultinject.PointHashBuild, Kind: faultinject.Error, OneInN: 1},
		}})()
		_, err := CollectBatches(chain3(NewCtx(db), JoinHash))
		return err
	}
	db = memoDB()
	cold = fault(db)
	collect(t, chain3(NewCtx(db), JoinHash))
	warm = fault(db)
	var ie *faultinject.InjectedError
	if !errors.As(cold, &ie) || warm == nil || cold.Error() != warm.Error() {
		t.Errorf("under an armed hash.build rule: cold %v, warm %v", cold, warm)
	}

	db = memoDB()
	forall := func(ctx *Ctx) *Join {
		r := &Filter{Ctx: ctx, In: scanOf(ctx, "Y"), Var: "y", Pred: pred("FORALL w IN y.c (w >= 0)")}
		return &Join{Ctx: ctx, Method: JoinHash, Kind: algebra.JoinSemi, L: scanOf(ctx, "X"), R: r,
			LVar: "x", RVar: "y", LKeys: exprs("x.b"), RKeys: exprs("y.b")}
	}
	var steps [2]int64
	for i := range steps {
		ctx := NewCtx(db)
		collect(t, forall(ctx))
		steps[i] = ctx.Ev.Steps
	}
	if steps[0] == 0 || steps[0] != steps[1] {
		t.Errorf("evaluator steps cold %d, warm %d", steps[0], steps[1])
	}
	if memo, _, _, _ := forall(NewCtx(db)).pinRight(); memo != nil {
		t.Error("a build over a filter that needs the evaluator has a memo")
	}
}

// TestMemoKeyNamesEverySnapshot pins why a key names every snapshot its
// subtree reads, not only the memo it lives in: a query that took Z's
// snapshot before a write to Z and then Y's after a write to Y reads a
// combination another query's entry in Y's new memo does not. It must fill
// its own entry from the snapshots it holds, and both answers must equal
// nested loops over the same snapshots.
func TestMemoKeyNamesEverySnapshot(t *testing.T) {
	db := memoDB()
	early := func(method JoinMethod) *Join {
		j := chain3(NewCtx(db), method)
		if _, err := j.R.(*Join).R.(*TableScan).pin(); err != nil {
			t.Fatal(err)
		}
		return j
	}
	hashEarly, nlEarly := early(JoinHash), early(JoinNL)
	z, _ := db.Table("Z")
	if n, err := z.DeleteRows(z.AsSet().Elems()); err != nil || n == 0 {
		t.Fatalf("deleted %d rows of Z: %v", n, err)
	}
	y, _ := db.Table("Y")
	if ok, err := y.Delete(y.AsSet().Elems()[0]); err != nil || !ok {
		t.Fatalf("deleting a row of Y: %v", err)
	}
	late := collect(t, chain3(NewCtx(db), JoinHash)).String()
	if want := collect(t, chain3(NewCtx(db), JoinNL)).String(); late != want {
		t.Fatalf("after the writes:\ngot  %s\nwant %s", late, want)
	}
	got, want := collect(t, hashEarly).String(), collect(t, nlEarly).String()
	if got != want {
		t.Fatalf("the query holding Z's old snapshot:\ngot  %s\nwant %s", got, want)
	}
	if got == late {
		t.Fatal("the write to Z does not change the answer: the test shows nothing")
	}
}
