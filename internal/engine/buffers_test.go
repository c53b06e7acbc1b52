package engine

import (
	"fmt"
	"sync"
	"testing"

	"tmdb/internal/datagen"
	"tmdb/internal/eval"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// TestResultOutlivesBorrowedBuffers: a result owns its rows. The operators'
// output buffers and the collector's scratch go back to pools when a query
// ends and are refilled by the next ones, so a result that aliased any of
// them would change under a later query. The first result's canonical
// encoding is kept and checked again after every other statement and the
// same one ran many times, serially and from four goroutines, each answer
// against naive evaluation.
func TestResultOutlivesBorrowedBuffers(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{NX: 600, NY: 1800, NZ: 1200, Keys: 150, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 7})
	eng := New(cat, db)
	eng.Analyze()
	texts := []string{
		`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
		`SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`,
		`SELECT x FROM X x WHERE COUNT(SELECT y.a FROM Y y WHERE x.b = y.b) >= 2`,
		`SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.b) FROM X x`,
		`SELECT x.b FROM X x, Y y WHERE x.b = y.d AND y.a < 3 AND x.b < 50`,
		`UNNEST(SELECT (SELECT (a = x.b, b = y.a) FROM Y y WHERE x.b = y.d) FROM X x)`,
	}
	// The naive answers come from the evaluator itself: the engine's naive
	// strategy also ends in the collector.
	want := make([]value.Value, len(texts))
	for i, text := range texts {
		bound, err := tmql.NewBinder(cat).Bind(tmql.MustParse(text))
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = eval.New(db).Eval(bound); err != nil {
			t.Fatal(err)
		}
	}
	check := func(i int) error {
		res, err := eng.Query(texts[i], Options{})
		if err != nil {
			return err
		}
		if !value.Equal(res.Value, want[i]) {
			return fmt.Errorf("%s: got %d rows, naive %d", texts[i], res.Value.Len(), want[i].Len())
		}
		return nil
	}
	if err := check(0); err != nil {
		t.Fatal(err)
	}
	first, err := eng.Query(texts[0], Options{})
	if err != nil || !value.Equal(first.Value, want[0]) {
		t.Fatalf("the first result differs from naive evaluation (err %v)", err)
	}
	key := value.AppendKey(nil, first.Value)
	kept := func(when string) {
		t.Helper()
		if string(value.AppendKey(nil, first.Value)) != string(key) {
			t.Fatalf("the first result changed after %s", when)
		}
	}
	iters := 20
	if testing.Short() {
		iters = 5
	}
	for range iters {
		for i := range texts {
			if err := check(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	kept("serial runs")
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range iters * len(texts) {
				if err := check((g + n) % len(texts)); err != nil {
					errs <- fmt.Errorf("worker %d: %w", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	kept("concurrent runs")
	if !value.Equal(first.Value, want[0]) {
		t.Fatal("the first result no longer equals naive evaluation")
	}
}
