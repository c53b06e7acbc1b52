package exec

import (
	"testing"

	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
)

// TestOpenIndexPinsResolvedSnapshot: index operators probe the snapshot the
// planner resolved at compile time. A dropped registry entry does not
// reach it, so the snapshot still opens after the drop, while a probe deeper
// than the index's attributes, an empty probe, or a missing index is refused.
func TestOpenIndexPinsResolvedSnapshot(t *testing.T) {
	db := storage.NewDB()
	tab := db.MustCreate("T", types.Tuple(types.F("a", types.Int)))
	tab.Seal()
	if err := tab.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	live, ok := tab.Index(storage.IndexName([]string{"a"}))
	if !ok {
		t.Fatal("created index is not served")
	}
	if !tab.DropIndex("a") {
		t.Fatal("DropIndex reported false")
	}
	if ix, err := openIndex(live, 1); err != nil || ix != live {
		t.Errorf("resolved snapshot after drop: openIndex = %v, %v", ix, err)
	}
	for _, depth := range []int{0, 2} {
		if _, err := openIndex(live, depth); err == nil {
			t.Errorf("probe depth %d on a one-attribute index opened", depth)
		}
	}
	if _, err := openIndex(nil, 1); err == nil {
		t.Error("an index probe without an index opened")
	}

	// Both index operators open over the dropped snapshot.
	ctx := NewCtx(db)
	for name, op := range map[string]BatchIterator{
		"join": &Join{Ctx: ctx, Method: JoinIndex, L: &SliceScan{}, LVar: "x", RVar: "t",
			Ix: live, LKeys: []tmql.Expr{tmql.MustParse("x")}},
		"scan": &IndexScan{Ctx: ctx, Ix: live, Depth: 1,
			Points: [][]tmql.Expr{{tmql.MustParse("1")}}},
	} {
		if err := op.Open(); err != nil {
			t.Errorf("%s: Open over the resolved snapshot = %v", name, err)
		}
		op.Close()
	}
}
