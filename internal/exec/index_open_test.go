package exec

import (
	"testing"

	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
)

// TestOpenIndexPinsResolvedSnapshot: index operators probe the snapshot the
// planner fetched when it compiled them. A dropped registry entry does not
// reach it, so the snapshot still opens after the drop, while a probe deeper
// than the index's attributes, an empty probe, or a missing index is refused.
func TestOpenIndexPinsResolvedSnapshot(t *testing.T) {
	db := storage.NewDB()
	tab := db.MustCreate("T", types.Tuple(types.F("a", types.Int)))
	if err := tab.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	live, ok := tab.IndexOn([]string{"a"})
	if !ok {
		t.Fatal("created index is not served")
	}
	if !tab.DropIndex("a") {
		t.Fatal("DropIndex reported false")
	}
	if err := checkIndex(live, 1); err != nil {
		t.Errorf("resolved snapshot after drop: checkIndex = %v", err)
	}
	for _, depth := range []int{0, 2} {
		if err := checkIndex(live, depth); err == nil {
			t.Errorf("probe depth %d on a one-attribute index opened", depth)
		}
	}
	if err := checkIndex(nil, 1); err == nil {
		t.Error("an index probe without an index opened")
	}

	// The index join and the scan with an index source both open over the
	// dropped snapshot.
	ctx := NewCtx(db)
	for name, op := range map[string]BatchIterator{
		"join": &Join{Ctx: ctx, Method: JoinIndex, L: &SliceScan{}, LVar: "x", RVar: "t",
			Ix: live, LKeys: []tmql.Expr{tmql.MustParse("x")}},
		"scan": &TableScan{Ctx: ctx, Table: "T", Ix: live, Depth: 1,
			Points: [][]tmql.Expr{{tmql.MustParse("1")}}},
	} {
		if err := op.Open(); err != nil {
			t.Errorf("%s: Open over the resolved snapshot = %v", name, err)
		}
		op.Close()
	}
}
