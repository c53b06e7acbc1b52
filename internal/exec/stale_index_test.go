package exec

import (
	"errors"
	"testing"

	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
)

// TestStaleIndexTyped pins the error taxonomy of index resolution at Open: a
// registered index that vanished between planning and Open (dropped, or the
// table unsealed) surfaces ErrStaleIndex — the signal engine.execBound turns
// into one transparent replan — while an unknown table stays an ordinary
// untyped failure (the liveness pre-check owns that case).
func TestStaleIndexTyped(t *testing.T) {
	db := storage.NewDB()
	elem := types.Tuple(types.F("a", types.Int))
	tab := db.MustCreate("T", elem)
	tab.Seal()

	ctx := NewCtx(db)

	if _, err := openIndex(ctx, nil, "T", "a", 1); !errors.Is(err, ErrStaleIndex) {
		t.Errorf("missing index: openIndex = %v, want ErrStaleIndex", err)
	}
	if _, err := openIndex(ctx, nil, "nope", "a", 1); err == nil || errors.Is(err, ErrStaleIndex) {
		t.Errorf("unknown table: openIndex = %v, want an untyped (non-stale) error", err)
	}

	// A live index opens. After a drop, the resolved snapshot still opens
	// (compile-time resolution pins it), while resolving by name observes
	// the stale error.
	if err := tab.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	live, err := openIndex(ctx, nil, "T", "a", 1)
	if err != nil {
		t.Fatalf("live index failed to open: %v", err)
	}
	if !tab.DropIndex("a") {
		t.Fatal("DropIndex reported false")
	}
	if _, err := openIndex(ctx, live, "T", "a", 1); err != nil {
		t.Errorf("resolved snapshot failed to reopen after drop: %v", err)
	}
	if _, err := openIndex(ctx, nil, "T", "a", 1); !errors.Is(err, ErrStaleIndex) {
		t.Errorf("dropped index: openIndex = %v, want ErrStaleIndex", err)
	}
	if _, err := openIndex(ctx, live, "T", "a", 2); err == nil {
		t.Error("a probe deeper than the index opened")
	}

	// Both index operators surface the typed error from Open.
	for name, op := range map[string]BatchIterator{
		"join": &Join{Ctx: ctx, Method: JoinIndex, L: &SliceScan{}, LVar: "x", RVar: "t",
			Table: "T", Index: "a", LKeys: []tmql.Expr{tmql.MustParse("x")}},
		"scan": &IndexScan{Ctx: ctx, Table: "T", Index: "a", Depth: 1,
			Points: [][]tmql.Expr{{tmql.MustParse("1")}}},
	} {
		if err := op.Open(); !errors.Is(err, ErrStaleIndex) {
			t.Errorf("%s: Open = %v, want ErrStaleIndex", name, err)
		}
	}
}
