package exec

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"tmdb/internal/algebra"
	"tmdb/internal/faultinject"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// The join family is one operator. Join walks its left input batch by batch
// and hands every left row, with the bucket of right rows that can match it,
// to a row probe: the flat kinds' (inner, semi, anti, left-outer) or the nest
// join's. Where the bucket comes from is the join method, the one thing the
// physical families differ in:
//
//   - JoinNL: the right input, drained once at Open. Every left row's bucket
//     is all of it, and Residual is the whole join predicate; no equi-key is
//     needed.
//   - JoinHash: a table built over the right input on RKeys at Open — or,
//     over a closed subtree of stored-table scans, the table kept for the
//     snapshots it reads (memo.go); a left row's bucket is the one under its
//     LKeys encoding.
//   - JoinIndex: a stored table's persistent hash index
//     (storage.Table.CreateIndex), probed under the same LKeys encoding — a
//     HashIndex keys its buckets by the concatenated value.AppendKey
//     encodings of the attribute values, exactly what keyEncoder appends. The
//     right input is never read: there is no build phase at all, and a
//     composite index serves as many leading key pairs as the predicate
//     pairs, the rest staying in Residual.
//   - JoinMerge: sort-merge. Open drains the left input and then the right
//     one, each stably sorted by the same key encoding; the left rows are
//     probed in key order, and a left row's bucket is the right run under its
//     key, found by a cursor that only moves forward. Key equality is the
//     byte equality of the hash and index methods, so all three agree.
//
// The right operand is always the bucket side and the left probes it. For the
// regular join one would pick the smaller operand to build; the family fixes
// build = right because §6 requires the right operand to be the build side of
// the nest join whenever the key is not unique on the right, so output stays
// grouped by left rows. Residual predicates are re-checked per bucket
// candidate. Governance is per row: each hash build row passes the
// hash.build gate and is charged to the build budget (a kept table passes
// the gate once per build site of its fill and charges the fill's bytes at
// once), and each left row of every method passes the hash.probe gate. The
// sorted runs are gated per drained batch instead (sortGate).

// JoinMethod is where Join finds a left row's candidate right rows.
type JoinMethod uint8

// The join methods.
const (
	JoinNL JoinMethod = iota
	JoinHash
	JoinIndex
	JoinMerge
)

// Join is the join operator: the flat join of Kind, or the paper's nest join
// X △[Q, G; a] Y when Fn is set. With Out set it also runs the projection
// above it inside its probe, so the joined row is never built.
type Join struct {
	Ctx    *Ctx
	Method JoinMethod
	// Kind selects the flat variant; the nest join ignores it.
	Kind algebra.JoinKind
	// L is the probing input; R is the right input of every method but
	// JoinIndex.
	L, R       BatchIterator
	LVar, RVar string
	// LKeys/RKeys are the equi-key expressions over LVar and RVar; the i-th
	// left key matches the i-th right key. JoinIndex takes only LKeys, in
	// the index's attribute order; len(LKeys) is the probed prefix depth.
	LKeys, RKeys []tmql.Expr
	// Residual is what the bucket does not decide (may be nil): under JoinNL
	// the whole join predicate.
	Residual tmql.Expr
	// RElem is required for the outer join's NULL padding.
	RElem *types.Type
	// Ix is JoinIndex's persistent index over the stored right table: the
	// live index the planner fetched when it compiled the join.
	Ix *storage.HashIndex
	// Fn and Label make the operator the nest join: each left element is
	// emitted exactly once, extended with Label = the (possibly empty) set
	// of Fn's images of its matches.
	Fn    tmql.Expr
	Label string
	// Test, on a nest join, fuses the selection above it (the groupjoin):
	// a left element is emitted unchanged, without its group, when Test
	// holds with LVar bound to it and Label bound to its group, and dropped
	// otherwise. A dangling element's group is ∅.
	Test tmql.Expr
	// Out, on an inner or left-outer join, is emitted for each joined pair
	// in place of LVar ++ RVar, the outer join's pad standing as the right
	// row; on a nest join without Test, in place of LVar ++ (Label = group),
	// with Label bound to the group.
	Out tmql.Expr

	// right is JoinNL's right input, or JoinMerge's sorted right rows not
	// yet passed by the cursor, with their keys in rkeys.
	right []value.Value
	rkeys [][]byte
	table *hashTable
	// memo is the snapshot memo that keeps table, and buildKey table's key
	// there; memo is nil when the table is this query's own.
	memo     *storage.Memo
	buildKey string
	// slot is the hash slot of the bucket last found (-1: the empty bucket).
	slot  int32
	lenc  keyEncoder
	key   []byte
	probe rowProbe
	// sorted and lkeys are JoinMerge's left rows in key order, not yet
	// handed out as batches, and the keys of the rows not yet probed.
	sorted chunks
	lkeys  [][]byte
	// left is the unprobed rest of the current left batch.
	left []value.Value
	out  outBuf
}

// Open prepares the bucket source — drains the right input, builds its
// table (or takes the one kept for the stored table's snapshot), resolves
// the index, or sorts both inputs — then the row probe, and opens the left
// input.
func (j *Join) Open() error {
	c := j.Ctx
	j.lenc = newKeyEncoder(c, j.LKeys, j.LVar)
	if (j.Method == JoinHash || j.Method == JoinMerge) && (len(j.LKeys) == 0 || len(j.LKeys) != len(j.RKeys)) {
		return fmt.Errorf("exec: hash and sort-merge joins need matching non-empty key lists")
	}
	if j.Fn == nil && j.Kind == algebra.JoinLeftOuter && j.RElem == nil {
		return fmt.Errorf("exec: outer join needs RElem for NULL padding")
	}
	var err error
	switch j.Method {
	case JoinHash:
		j.table, err = j.buildHash()
	case JoinIndex:
		err = checkIndex(j.Ix, len(j.LKeys))
	case JoinMerge:
		if j.sorted.rows, j.lkeys, err = sortRun(c, j.L, j.lenc); err == nil {
			j.right, j.rkeys, err = sortRun(c, j.R, newKeyEncoder(c, j.RKeys, j.RVar))
		}
	default:
		j.right, err = drainRows(j.R)
	}
	if err != nil {
		return err
	}
	j.probe = j.prober()
	if j.Method == JoinMerge {
		return nil // the sort drained and closed L: there is nothing left to open
	}
	return j.L.Open()
}

// rowProbe probes one left row against its bucket and appends the row's join
// output to out.
type rowProbe func(l value.Value, bucket, out []value.Value) ([]value.Value, error)

// prober returns the row probe of the join's kind. The semi and anti joins
// take the early-out probe that never builds a group — the efficiency edge
// §8 exploits when grouping is provably unnecessary.
func (j *Join) prober() rowProbe {
	res := compilePred(j.Ctx, j.Residual, j.LVar, j.RVar)
	if j.Fn != nil {
		return j.nestProber(res)
	}
	switch j.Kind {
	case algebra.JoinSemi, algebra.JoinAnti:
		semi := j.Kind == algebra.JoinSemi
		return func(l value.Value, bucket, out []value.Value) ([]value.Value, error) {
			m := false
			for _, r := range bucket {
				var err error
				if m, err = res(l, r); err != nil {
					return nil, err
				}
				if m {
					break
				}
			}
			if m == semi {
				out = append(out, l)
			}
			return out, nil
		}
	}
	outer := j.Kind == algebra.JoinLeftOuter
	var pad value.Value
	if outer {
		pad = nullTuple(j.RElem)
	}
	join := j.output(func(l, r value.Value) (value.Value, error) { return l.Concat(r), nil })
	return func(l value.Value, bucket, out []value.Value) ([]value.Value, error) {
		matched := false
		for _, r := range bucket {
			ok, err := res(l, r)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				if out, err = appendJoined(out, join, l, r); err != nil {
					return nil, err
				}
			}
		}
		if outer && !matched {
			return appendJoined(out, join, l, pad)
		}
		return out, nil
	}
}

// output returns Out compiled over LVar and outVar, or joined when Out is
// unset.
func (j *Join) output(joined scalar2) scalar2 {
	if j.Out == nil {
		return joined
	}
	return compile(j.Ctx, j.Out, j.LVar, j.outVar())
}

// appendJoined appends the output of join over l and r to out.
func appendJoined(out []value.Value, join scalar2, l, r value.Value) ([]value.Value, error) {
	v, err := join(l, r)
	if err != nil {
		return nil, err
	}
	return append(out, v), nil
}

// outVar is the variable Out reads beside LVar: the nest join's group, or
// the right row.
func (j *Join) outVar() string { return cmp.Or(j.Label, j.RVar) }

// bucketGroup is one nest-join group: the group, and the fused test's
// verdict on it once that verdict is known to hold for the whole bucket.
type bucketGroup struct {
	group          value.Value
	holds, decided bool
}

// bucketID names a bucket by its first row; nil names the empty bucket.
func bucketID(bucket []value.Value) *value.Value {
	if len(bucket) == 0 {
		return nil
	}
	return &bucket[0]
}

// nestProber returns the nest join's row probe. When neither the residual
// nor the join function reads the left row, a group is a function of its
// bucket alone: it is built once per hash slot or index bucket and shared by
// every left row probing that bucket — and over a kept table, by every query
// on its snapshot (sharedGroups). A fused Test that does not read the left
// row either is then also evaluated once per bucket.
func (j *Join) nestProber(res pred2) rowProbe {
	fn := compileScalar2(j.Fn, j.Ctx.Ev.Args, j.LVar, j.RVar)
	compiled := fn != nil
	if !compiled {
		fn = evaluated(j.Ctx, j.Fn, j.LVar, j.RVar)
	}
	perBucket := j.Test != nil && !tmql.FreeVars(j.Test)[j.LVar]
	var groups bucketGroups
	if shared := j.sharedGroups(fn, compiled); shared != nil {
		groups = j.slotGroups(shared, perBucket)
	} else {
		groups = j.queryGroups(res, fn, perBucket)
	}
	if j.Test == nil {
		extend := j.output(func(l, g value.Value) (value.Value, error) { return l.Extend(j.Label, g), nil })
		return func(l value.Value, bucket, out []value.Value) ([]value.Value, error) {
			g, err := groups.get(l, bucket)
			if err != nil {
				return nil, err
			}
			return appendJoined(out, extend, l, g.group)
		}
	}
	test := compilePred(j.Ctx, j.Test, j.LVar, j.Label)
	return func(l value.Value, bucket, out []value.Value) ([]value.Value, error) {
		g, err := groups.get(l, bucket)
		if err != nil {
			return nil, err
		}
		if !g.decided {
			if g.holds, err = test(l, g.group); err != nil {
				return nil, err
			}
			if groups.keep != nil {
				g.decided = true
				groups.keep(bucket, g)
			}
		}
		if g.holds {
			out = append(out, l)
		}
		return out, nil
	}
}

// bucketGroups is where a nest join's probe finds a bucket's group: get
// returns it, with the fused test's verdict once decided, and keep records a
// decided verdict — nil unless the verdict is a function of the bucket.
type bucketGroups struct {
	get  func(l value.Value, bucket []value.Value) (bucketGroup, error)
	keep func(bucket []value.Value, g bucketGroup)
}

// queryGroups builds the groups of the buckets this query probes. When a
// group is a function of its bucket, each is built once, memoized under the
// bucket's first row.
func (j *Join) queryGroups(res pred2, fn scalar2, perBucket bool) bucketGroups {
	// A key bucket bounds its group closely; the nested-loop bucket is the
	// whole right input, which would make every group hold |R| slots.
	keyed := j.Method != JoinNL
	var memo map[*value.Value]bucketGroup
	if j.Residual == nil && !tmql.FreeVars(j.Fn)[j.LVar] {
		memo = make(map[*value.Value]bucketGroup)
	}
	groups := bucketGroups{get: func(l value.Value, bucket []value.Value) (bucketGroup, error) {
		if g, ok := memo[bucketID(bucket)]; ok {
			return g, nil
		}
		size := 0
		if keyed {
			size = len(bucket)
		}
		group, err := nestGroup(res, fn, l, bucket, size)
		g := bucketGroup{group: group}
		if err == nil && memo != nil {
			memo[bucketID(bucket)] = g
		}
		return g, err
	}}
	if memo != nil && perBucket {
		groups.keep = func(bucket []value.Value, g bucketGroup) { memo[bucketID(bucket)] = g }
	}
	return groups
}

// slotGroups serves the shared groups of a kept table: the bucket of slot s
// has group shared[s], the empty bucket ∅. Only the test's verdicts are the
// query's own.
func (j *Join) slotGroups(shared []value.Value, perBucket bool) bucketGroups {
	empty := value.NewSetBuilder(0).Build()
	// verdicts[s+1] is slot s's decided verdict, [0] the empty bucket's: 0
	// while undecided, then 1 (fails) or 2 (holds).
	var verdicts []uint8
	groups := bucketGroups{get: func(value.Value, []value.Value) (bucketGroup, error) {
		g := bucketGroup{group: empty}
		if j.slot >= 0 {
			g.group = shared[j.slot]
		}
		if verdicts != nil && verdicts[j.slot+1] != 0 {
			g.decided, g.holds = true, verdicts[j.slot+1] == 2
		}
		return g, nil
	}}
	if perBucket {
		verdicts = make([]uint8, len(shared)+1)
		groups.keep = func(_ []value.Value, g bucketGroup) {
			verdicts[j.slot+1] = 1
			if g.holds {
				verdicts[j.slot+1] = 2
			}
		}
	}
	return groups
}

// nullTuple builds a tuple of the given type with NULL in every attribute —
// the relational outerjoin padding (TM itself has no NULLs; this exists for
// the Ganski–Wong baseline).
func nullTuple(t *types.Type) value.Value {
	fs := make([]value.Field, 0, len(t.Fields))
	for _, f := range t.Fields {
		fs = append(fs, value.F(f.Label, value.Null))
	}
	return value.TupleOf(fs...)
}

// nestGroup applies the nest join's per-left-element grouping: the join
// function over the bucket candidates passing the residual, canonicalized
// into a set. The builder starts with room for size elements and the set
// keeps that backing array, so callers pass the bucket's length only when
// the bucket is the key's matches (then construction never regrows) and 0
// otherwise.
func nestGroup(res pred2, fn scalar2, l value.Value, bucket []value.Value, size int) (value.Value, error) {
	group := value.NewSetBuilder(size)
	for _, r := range bucket {
		match, err := res(l, r)
		if err != nil {
			return value.Value{}, err
		}
		if !match {
			continue
		}
		g, err := fn(l, r)
		if err != nil {
			return value.Value{}, err
		}
		group.Add(g)
	}
	return group.Build(), nil
}

// checkIndex checks the persistent index an index join or a table scan with
// an index source probes at depth leading attributes. The planner fetches
// the live *HashIndex by name each time it compiles the operator — index
// buckets are copy-on-write, so the snapshot stays probeable even if the
// registry entry is dropped mid-query, exactly like a scan's row snapshot.
func checkIndex(ix *storage.HashIndex, depth int) error {
	if ix == nil {
		return fmt.Errorf("exec: index probe without an index")
	}
	if depth < 1 || depth > len(ix.Attrs()) {
		return fmt.Errorf("exec: probe depth %d outside index (%s)", depth, ix.Name())
	}
	return nil
}

// bucket returns the candidates of left row l: all of the right input, the
// table's or index's bucket under l's encoded key, or l's right run.
func (j *Join) bucket(l value.Value) ([]value.Value, error) {
	switch j.Method {
	case JoinNL:
		return j.right, nil
	case JoinMerge:
		return j.mergeRun(), nil
	}
	key, err := j.lenc.appendKey(j.key[:0], l)
	if err != nil {
		return nil, err
	}
	j.key = key
	if j.Method == JoinHash {
		var b []value.Value
		b, j.slot = j.table.bucket(key)
		return b, nil
	}
	return j.Ix.LookupEncoded(string(key), len(j.LKeys)), nil
}

// mergeRun returns the bucket of the next left row in key order: the right
// run under its key. The cursor skips the right rows keyed below it and,
// since the left rows come in key order, never moves back.
func (j *Join) mergeRun() []value.Value {
	key := j.lkeys[0]
	j.lkeys = j.lkeys[1:]
	for len(j.rkeys) > 0 && bytes.Compare(j.rkeys[0], key) < 0 {
		j.right, j.rkeys = j.right[1:], j.rkeys[1:]
	}
	n := 0
	for n < len(j.rkeys) && bytes.Equal(j.rkeys[n], key) {
		n++
	}
	return j.right[:n:n]
}

// probeCheck is the per-left-row governance + fault-injection gate of the
// join's probe loop.
func probeCheck(c *Ctx) error {
	if err := c.check(); err != nil {
		return err
	}
	return faultinject.Hit(faultinject.PointHashProbe)
}

// NextBatch returns the next output batch: the output of the rest of the
// current left batch, cut short once it reaches DefaultBatchSize rows. The
// join keeps its place in the left batch and resumes there, so a batch
// overshoots DefaultBatchSize by at most one bucket's fanout however large
// the join's fanout is, and no output batch spans two left batches.
func (j *Join) NextBatch() ([]value.Value, bool, error) {
	out := j.out.reset()
	for len(out) < DefaultBatchSize {
		if len(j.left) == 0 {
			if len(out) > 0 {
				break
			}
			bt, ok, err := j.nextLeft()
			if err != nil || !ok {
				return nil, false, err
			}
			j.left, out = bt, slices.Grow(out, len(bt))
		}
		l := j.left[0]
		j.left = j.left[1:]
		if err := probeCheck(j.Ctx); err != nil {
			return nil, false, err
		}
		bucket, err := j.bucket(l)
		if err != nil {
			return nil, false, err
		}
		if out, err = j.probe(l, bucket, out); err != nil {
			return nil, false, err
		}
		j.out.rows = out
	}
	return out, true, nil
}

// nextLeft returns the next left batch: of the sorted left rows under
// JoinMerge, of the left input otherwise.
func (j *Join) nextLeft() ([]value.Value, bool, error) {
	if j.Method == JoinMerge {
		b, ok := j.sorted.next()
		return b, ok, nil
	}
	return j.L.NextBatch()
}

// Close releases the bucket source and the output buffer and closes the left
// input, which the sort-merge method already closed at Open.
func (j *Join) Close() error {
	j.out.release()
	j.right, j.rkeys, j.lkeys, j.sorted, j.table, j.memo, j.left = nil, nil, nil, chunks{}, nil, nil, nil
	if j.Method == JoinMerge {
		return nil
	}
	return j.L.Close()
}
