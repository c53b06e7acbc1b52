package enginetest

import (
	"fmt"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/value"
)

// BatchSizes is the set of vectorized batch sizes the harness exercises:
// single-row batches (every per-batch boundary crossed per row), a mid-size,
// and the default capacity.
func BatchSizes() []int { return []int{1, 64, 1024} }

// TestConformanceBatchDeterminism executes every golden query under every
// strategy at every batch size and asserts results are bit-identical to the
// row-at-a-time run: not just set-equal but byte-equal under the canonical
// value encoding. Batch size 0 additionally covers the cost-chosen auto path.
func TestConformanceBatchDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full strategy × batch matrix; run without -short (CI's dedicated enginetest race job covers it)")
	}
	for _, g := range Goldens {
		t.Run(g.Name, func(t *testing.T) {
			eng := OpenDB(g.DB)
			for _, s := range Strategies() {
				row, err := eng.Query(g.Query, engine.Options{Strategy: s, BatchSize: -1})
				if err != nil {
					if SkippableError(err) {
						continue // infeasible regardless of batch size
					}
					t.Errorf("%s row: %v", s, err)
					continue
				}
				rowKey := value.Key(row.Value)
				for _, size := range append([]int{0}, BatchSizes()...) {
					name := fmt.Sprintf("%s×batch=%d", s, size)
					res, err := eng.Query(g.Query, engine.Options{Strategy: s, BatchSize: size})
					if err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					if got := value.Key(res.Value); got != rowKey {
						lost := value.Diff(row.Value, res.Value)
						extra := value.Diff(res.Value, row.Value)
						t.Errorf("%s: result not bit-identical to row execution (lost %d, extra %d)",
							name, lost.Len(), extra.Len())
					}
					if size > 0 && res.Batch != size {
						t.Errorf("%s: Result.Batch = %d, want %d", name, res.Batch, size)
					}
				}
			}
		})
	}
}

// TestConformanceBatchExplain asserts EXPLAIN carries the batch size in its
// header for golden queries when vectorized execution is pinned, and stays
// on "row" when pinned off.
func TestConformanceBatchExplain(t *testing.T) {
	for _, g := range Goldens {
		eng := OpenDB(g.DB)
		out, err := eng.Explain(g.Query, engine.Options{BatchSize: 1024})
		if err != nil {
			t.Errorf("%s: Explain: %v", g.Name, err)
			continue
		}
		if !contains(out, "batch=1024") {
			t.Errorf("%s: EXPLAIN misses the batch header:\n%s", g.Name, out)
		}
		if out, err := eng.Explain(g.Query, engine.Options{BatchSize: -1}); err != nil || !contains(out, "batch=row") {
			t.Errorf("%s: row-pinned EXPLAIN misses batch=row (err %v):\n%s", g.Name, err, out)
		}
	}
}

// FuzzBatchMatchesRow is the vectorized-determinism property: over generated
// XYZ schemas and every fuzz query shape, executing at batch sizes 1, 64,
// and 1024 must produce results bit-identical to row-at-a-time execution,
// under both the auto planner and the paper's fixed nest-join strategy.
func FuzzBatchMatchesRow(f *testing.F) {
	for qi := range fuzzQueries {
		f.Add(uint8(24), uint8(72), uint8(6), uint8(25), int64(1), uint8(qi))
	}
	f.Add(uint8(0), uint8(0), uint8(0), uint8(99), int64(3), uint8(0))
	f.Add(uint8(47), uint8(95), uint8(11), uint8(50), int64(5), uint8(4))

	f.Fuzz(func(t *testing.T, nx, ny, keys, dangPct uint8, seed int64, qi uint8) {
		spec := fuzzSpec(nx, ny, keys, dangPct, seed)
		cat, db := datagen.XYZ(spec)
		eng := engine.New(cat, db)
		q := fuzzQueries[int(qi)%len(fuzzQueries)]
		for _, s := range []core.Strategy{core.StrategyAuto, core.StrategyNestJoin} {
			row, err := eng.Query(q, engine.Options{Strategy: s, BatchSize: -1})
			if err != nil {
				t.Fatalf("%s row: %v", s, err)
			}
			want := value.Key(row.Value)
			for _, size := range BatchSizes() {
				res, err := eng.Query(q, engine.Options{Strategy: s, BatchSize: size})
				if err != nil {
					t.Fatalf("%s batch=%d: %v", s, size, err)
				}
				if value.Key(res.Value) != want {
					t.Fatalf("%s batch=%d differs from row execution on spec %+v:\nquery: %s",
						s, size, spec, q)
				}
			}
		}
	})
}
