package exec

import (
	"math/rand"
	"slices"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// checkKeyTable asserts that t agrees with ref, the reference map from key to
// slot: every key of ref is found at its slot, and absent is not found.
func checkKeyTable(t *testing.T, kt *keyTable, ref map[string]int32, absent []string) {
	t.Helper()
	if len(kt.slots) != len(ref) {
		t.Fatalf("table holds %d keys, reference %d", len(kt.slots), len(ref))
	}
	for k, s := range ref {
		if got := kt.find([]byte(k)); got != s {
			t.Fatalf("find(%q) = %d, want %d", k, got, s)
		}
	}
	for _, k := range absent {
		if _, ok := ref[k]; !ok && kt.find([]byte(k)) != -1 {
			t.Fatalf("absent key %q found", k)
		}
	}
}

// TestKeyTableMatchesMap checks intern and find against a map[string]int32
// that numbers keys in first-seen order: random keys over a two-letter
// alphabet (so many are byte prefixes of each other, the empty key among
// them), enough distinct ones to double the index at least three times and
// to spill the interned keys into more than one chunk.
func TestKeyTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	randKey := func(maxLen int) string {
		b := make([]byte, rng.Intn(maxLen+1))
		for i := range b {
			b[i] = "ab"[rng.Intn(2)]
		}
		return string(b)
	}
	for trial := range 20 {
		var kt keyTable
		ref := map[string]int32{}
		fixed := []string{"", "a", "ab", "abb", "b", "ba"}
		var absent []string
		for i := range 6000 {
			k := randKey(40)
			if i < len(fixed) {
				k = fixed[i]
			}
			if i%3 == 0 {
				absent = append(absent, randKey(40))
				continue
			}
			want, seen := ref[k]
			if !seen {
				want = int32(len(ref))
				ref[k] = want
			}
			s, added := kt.intern([]byte(k))
			if s != want || added == seen {
				t.Fatalf("trial %d: intern(%q) = %d, %v; want %d, %v", trial, k, s, added, want, !seen)
			}
		}
		checkKeyTable(t, &kt, ref, append(absent, "abababababababababababababab", "c"))
		if len(kt.index) < minKeyIndex<<3 || 2*len(kt.slots) > len(kt.index) {
			t.Fatalf("trial %d: index of %d entries for %d keys: want three doublings and a load of at most half",
				trial, len(kt.index), len(kt.slots))
		}
		if trial == 0 && len(kt.chunks) < 3 {
			t.Fatalf("interned keys fit %d chunks: the spill path is untested", len(kt.chunks))
		}
		for c, chunk := range kt.chunks[1:] {
			if cap(chunk) != keyChunkBytes {
				t.Fatalf("trial %d: chunk %d grew to %d bytes", trial, c+1, cap(chunk))
			}
		}
	}
}

// TestKeyTableForcedCollisions holds a table at its minimum size and makes
// every key probe past others: all keys share one home entry, and in the
// second case one hash too, so only the byte compare tells them apart.
func TestKeyTableForcedCollisions(t *testing.T) {
	keys := []string{"a", "", "ab", "b"} // half of minKeyIndex: no doubling
	for name, hash := range map[string]func(i int) uint64{
		"same home": func(i int) uint64 { return uint64(i) * minKeyIndex },
		"same hash": func(int) uint64 { return 42 },
	} {
		t.Run(name, func(t *testing.T) {
			kt := keyTable{chunks: [][]byte{nil}}
			ref := map[string]int32{}
			for round := range 2 {
				for i, k := range keys {
					off := uint32(len(kt.chunks[0]))
					if round == 0 {
						kt.chunks[0] = appendKeyEntry(kt.chunks[0], []byte(k))
					}
					s, added := kt.insert([]byte(k), hash(i), 0, off)
					if added != (round == 0) || s != int32(i) {
						t.Fatalf("round %d: insert(%q) = %d, %v", round, k, s, added)
					}
					ref[k] = s
				}
			}
			if len(kt.index) != minKeyIndex {
				t.Fatalf("index grew to %d entries for %d keys", len(kt.index), len(keys))
			}
			for i, k := range keys {
				if s := kt.lookup([]byte(k), hash(i)); s != ref[k] {
					t.Errorf("lookup(%q) = %d, want %d", k, s, ref[k])
				}
			}
			if s := kt.lookup([]byte("abc"), hash(0)); s != -1 {
				t.Errorf("absent key colliding with all found at slot %d", s)
			}
		})
	}
}

// TestDrainKeyedAliasesStableBatches pins the copy-or-alias rule of the
// build: a stored table's scan batches are retained as the chunks of the
// table's snapshot, while batches of an operator that reuses its output
// buffer are copied.
func TestDrainKeyedAliasesStableBatches(t *testing.T) {
	_, db := datagen.XYZ(datagen.Spec{NX: 10, NY: 3000, NZ: 10, Keys: 50, SetAttrCard: 2, Seed: 34})
	ctx := NewCtx(db)
	y, _ := db.Table("Y")
	chunks, _ := y.Snapshot()
	enc := newKeyEncoder(ctx, []tmql.Expr{pred("y.b")}, "y")
	run, err := drainKeyed(&TableScan{Ctx: ctx, Table: "Y"}, enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.batches) < 3 {
		t.Fatalf("%d batches: want several", len(run.batches))
	}
	if len(run.batches) != len(chunks) {
		t.Fatalf("%d batches over %d chunks", len(run.batches), len(chunks))
	}
	for k, b := range run.batches {
		if &b[0] != &chunks[k][0] || len(b) != len(chunks[k]) {
			t.Fatalf("batch %d is a copy, not the table's chunk", k)
		}
	}
	// The map's buffer goes back to the pool at Close, inside the drain, so
	// its address is taken from each batch as it passes.
	m := &batchAddrs{BatchIterator: &Map{Ctx: ctx, In: &TableScan{Ctx: ctx, Table: "Y"}, Var: "y", Out: pred("(b = y.b, d = y.d)")}}
	if run, err = drainKeyed(m, enc, nil); err != nil {
		t.Fatal(err)
	}
	if len(m.addrs) < 3 {
		t.Fatalf("%d map batches: want several", len(m.addrs))
	}
	for k, b := range run.batches {
		if slices.Contains(m.addrs, &b[0]) || k > 0 && &b[0] == &run.batches[0][0] {
			t.Fatal("a reused output buffer was retained instead of copied")
		}
	}
}

// batchAddrs passes its input's batches through and records the address of
// each one's first row.
type batchAddrs struct {
	BatchIterator
	addrs []*value.Value
}

func (b *batchAddrs) NextBatch() ([]value.Value, bool, error) {
	bt, ok, err := b.BatchIterator.NextBatch()
	if ok {
		b.addrs = append(b.addrs, &bt[0])
	}
	return bt, ok, err
}

// TestHashJoinOverReusedBatches is the copy half of the rule end to end: a
// hash join (nest and flat) whose right input is a Map, which reuses one
// output buffer for every batch, must match nested loops over at least three
// right batches.
func TestHashJoinOverReusedBatches(t *testing.T) {
	l, r := genRows(200, 40, "k", "v"), genRows(300, 40, "j", "w")
	right := func() BatchIterator {
		return &Map{Ctx: NewCtx(nil), In: &SliceScan{Rows: r, Size: 64}, Var: "y", Out: pred("(j = y.j, w = y.w + 1)")}
	}
	for _, nest := range []bool{false, true} {
		join := func(method JoinMethod) *Join {
			j := &Join{
				Ctx: NewCtx(nil), Method: method, Kind: algebra.JoinInner,
				L: &SliceScan{Rows: l, Size: 50}, R: right(), LVar: "x", RVar: "y",
			}
			if method == JoinHash {
				j.LKeys, j.RKeys = []tmql.Expr{pred("x.k")}, []tmql.Expr{pred("y.j")}
			} else {
				j.Residual = pred("x.k = y.j")
			}
			if nest {
				j.Fn, j.Label = pred("y.w"), "ws"
			}
			return j
		}
		got, want := collect(t, join(JoinHash)), collect(t, join(JoinNL))
		if value.Key(got) != value.Key(want) {
			t.Errorf("nest=%v: hash join over reused batches differs from nested loops", nest)
		}
		if want.Len() == 0 {
			t.Fatalf("nest=%v: empty reference", nest)
		}
	}
}
