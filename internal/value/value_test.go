package value

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicConstructorsAndAccessors(t *testing.T) {
	if got := Int(42).AsInt(); got != 42 {
		t.Errorf("Int(42).AsInt() = %d", got)
	}
	if got := Str("hi").AsString(); got != "hi" {
		t.Errorf("Str round trip: %q", got)
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool round trip failed")
	}
	if got := Float(2.5).AsFloat(); got != 2.5 {
		t.Errorf("Float round trip: %v", got)
	}
	if got := Int(3).AsFloat(); got != 3.0 {
		t.Errorf("Int widening: %v", got)
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
}

func TestTupleCanonicalOrder(t *testing.T) {
	a := TupleOf(F("b", Int(2)), F("a", Int(1)))
	b := TupleOf(F("a", Int(1)), F("b", Int(2)))
	if !Equal(a, b) {
		t.Errorf("tuples with same fields in different order differ: %s vs %s", a, b)
	}
	if got := a.Labels(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Labels = %v", got)
	}
	if v, ok := a.Get("b"); !ok || v.AsInt() != 2 {
		t.Errorf("Get(b) = %v, %v", v, ok)
	}
	if _, ok := a.Get("zz"); ok {
		t.Error("Get of missing label returned ok")
	}
}

func TestTupleDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate labels")
		}
	}()
	TupleOf(F("a", Int(1)), F("a", Int(2)))
}

func TestTupleConcatExtendProjectDrop(t *testing.T) {
	x := TupleOf(F("a", Int(1)), F("b", Int(2)))
	y := TupleOf(F("c", Int(3)))
	xy := x.Concat(y)
	if xy.Arity() != 3 || xy.MustGet("c").AsInt() != 3 {
		t.Errorf("Concat = %s", xy)
	}
	ext := x.Extend("zs", SetOf(Int(9)))
	if !Equal(ext.MustGet("zs"), SetOf(Int(9))) {
		t.Errorf("Extend = %s", ext)
	}
	if got := xy.Project("a", "c"); got.Arity() != 2 {
		t.Errorf("Project = %s", got)
	}
	if got := xy.Drop("b"); got.HasField("b") || got.Arity() != 2 {
		t.Errorf("Drop = %s", got)
	}
}

// randomLabels returns n distinct labels drawn from a pool mixing one- and
// two-letter names, so sorted order is not insertion order.
func randomLabels(r *rand.Rand, n int) []string {
	pool := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n",
		"aa", "ab", "ba", "bz", "x1", "y", "z", "zs"}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:n]
}

// TestConcatExtendMatchTupleOf checks the merging constructors against
// TupleOf over the combined fields, for random label sets split at random
// between the operands.
func TestConcatExtendMatchTupleOf(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for iter := 0; iter < 500; iter++ {
		labels := randomLabels(r, r.Intn(13))
		var left, right, all []Field
		for i, l := range labels {
			f := F(l, Int(int64(i)))
			all = append(all, f)
			if r.Intn(2) == 0 {
				left = append(left, f)
			} else {
				right = append(right, f)
			}
		}
		want := TupleOf(all...)
		if got := TupleOf(left...).Concat(TupleOf(right...)); !Equal(got, want) {
			t.Fatalf("Concat(%v, %v) = %s, want %s", left, right, got, want)
		}
		if len(all) == 0 {
			continue
		}
		k := r.Intn(len(all))
		rest := append(append([]Field(nil), all[:k]...), all[k+1:]...)
		if got := TupleOf(rest...).Extend(all[k].Label, all[k].V); !Equal(got, want) {
			t.Fatalf("Extend(%v, %s) = %s, want %s", rest, all[k].Label, got, want)
		}
	}
}

// TestTupleLabelCollisionPanics pins that Concat and Extend refuse a label
// collision with TupleOf's panic text.
func TestTupleLabelCollisionPanics(t *testing.T) {
	panicText := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	want := panicText(func() { TupleOf(F("b", Int(1)), F("b", Int(2))) })
	if want != "value: duplicate tuple label b" {
		t.Fatalf("TupleOf panic = %v", want)
	}
	x := TupleOf(F("a", Int(1)), F("b", Int(2)), F("c", Int(3)))
	for name, f := range map[string]func(){
		"Concat":       func() { x.Concat(TupleOf(F("b", Int(9)))) },
		"Concat/multi": func() { x.Concat(TupleOf(F("aa", Int(0)), F("b", Int(9)), F("d", Int(0)))) },
		"Extend":       func() { x.Extend("b", EmptySet) },
	} {
		if got := panicText(f); got != want {
			t.Errorf("%s panic = %v, want %v", name, got, want)
		}
	}
}

// TestGetMatchesBinarySearch checks Get — a linear scan — against a binary
// search over the canonical labels at every arity from 0 to 12, for present
// and absent labels alike.
func TestGetMatchesBinarySearch(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	probes := []string{"", "a", "aa", "m", "zs", "zz", "missing"}
	for arity := 0; arity <= 12; arity++ {
		fs := make([]Field, arity)
		for i, l := range randomLabels(r, arity) {
			fs[i] = F(l, Int(int64(i)))
		}
		tup := TupleOf(fs...)
		for _, label := range append(tup.Labels(), probes...) {
			sorted := tup.Fields()
			i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Label >= label })
			wantOK := i < len(sorted) && sorted[i].Label == label
			got, ok := tup.Get(label)
			if ok != wantOK || (ok && !Equal(got, sorted[i].V)) {
				t.Errorf("arity %d: Get(%q) = %s, %v; binary search says present=%v", arity, label, got, ok, wantOK)
			}
		}
	}
}

func TestSetCanonicalization(t *testing.T) {
	s := SetOf(Int(3), Int(1), Int(3), Int(2), Int(1))
	if s.Len() != 3 {
		t.Fatalf("set should dedup: %s", s)
	}
	es := s.Elems()
	for i := 1; i < len(es); i++ {
		if Compare(es[i-1], es[i]) >= 0 {
			t.Errorf("set not sorted: %s", s)
		}
	}
	if !Equal(SetOf(Int(1), Int(2)), SetOf(Int(2), Int(1))) {
		t.Error("set equality is order sensitive")
	}
	if !EmptySet.IsEmptySet() {
		t.Error("EmptySet not empty")
	}
}

func TestIntFloatCrossComparison(t *testing.T) {
	if Compare(Int(1), Float(1.0)) != 0 {
		t.Error("1 != 1.0")
	}
	if Compare(Int(1), Float(1.5)) >= 0 {
		t.Error("1 >= 1.5")
	}
	if Compare(Float(2.5), Int(2)) <= 0 {
		t.Error("2.5 <= 2")
	}
	// Sets must dedup across int/float equality.
	if got := SetOf(Int(1), Float(1.0)).Len(); got != 1 {
		t.Errorf("SetOf(1, 1.0) has %d elements", got)
	}
}

func TestCompareTotalOrderProperties(t *testing.T) {
	vals := sampleValues()
	for _, a := range vals {
		if Compare(a, a) != 0 {
			t.Errorf("not reflexive: %s", a)
		}
		for _, b := range vals {
			if sgn(Compare(a, b)) != -sgn(Compare(b, a)) {
				t.Errorf("not antisymmetric: %s vs %s", a, b)
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("not transitive: %s ≤ %s ≤ %s but a > c", a, b, c)
				}
			}
		}
	}
}

func sgn(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestCompareNaN(t *testing.T) {
	nan := Float(math.NaN())
	if Compare(nan, nan) != 0 {
		t.Error("NaN != NaN under total order")
	}
	if Compare(nan, Float(-1e300)) >= 0 {
		t.Error("NaN should sort first among floats")
	}
}

func TestString(t *testing.T) {
	v := TupleOf(F("a", Int(1)), F("s", SetOf(Str("x"))), F("l", ListOf(Int(1), Int(1))))
	got := v.String()
	want := `(a = 1, l = [1, 1], s = {"x"})`
	if got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
	if Null.String() != "NULL" {
		t.Errorf("Null.String() = %s", Null.String())
	}
}

func TestSetOperators(t *testing.T) {
	a := SetOf(Int(1), Int(2), Int(3))
	b := SetOf(Int(2), Int(3), Int(4))
	if got := Union(a, b); !Equal(got, SetOf(Int(1), Int(2), Int(3), Int(4))) {
		t.Errorf("Union = %s", got)
	}
	if got := Intersect(a, b); !Equal(got, SetOf(Int(2), Int(3))) {
		t.Errorf("Intersect = %s", got)
	}
	if got := Diff(a, b); !Equal(got, SetOf(Int(1))) {
		t.Errorf("Diff = %s", got)
	}
	if !Contains(a, Int(2)) || Contains(a, Int(9)) {
		t.Error("Contains misbehaves")
	}
	if !SubsetEq(SetOf(Int(1)), a) || SubsetEq(a, SetOf(Int(1))) {
		t.Error("SubsetEq misbehaves")
	}
	if !Subset(SetOf(Int(1)), a) || Subset(a, a) {
		t.Error("Subset misbehaves (must be proper)")
	}
	if !SupersetEq(a, a) || !Superset(a, SetOf(Int(1))) || Superset(a, a) {
		t.Error("Superset family misbehaves")
	}
	if !Disjoint(SetOf(Int(1)), SetOf(Int(2))) || Disjoint(a, b) {
		t.Error("Disjoint misbehaves")
	}
	// ∅ edge cases.
	if !SubsetEq(EmptySet, EmptySet) || Subset(EmptySet, EmptySet) {
		t.Error("∅ subset edge cases")
	}
	if !Disjoint(EmptySet, a) {
		t.Error("∅ is disjoint from everything")
	}
}

func TestSetAlgebraLawsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Values: func(vs []reflect.Value, r *rand.Rand) {
		for i := range vs {
			vs[i] = reflect.ValueOf(randomIntSet(r))
		}
	}}
	// Union commutative, intersection distributes, De Morgan via Diff.
	if err := quick.Check(func(a, b, c Value) bool {
		if !Equal(Union(a, b), Union(b, a)) {
			return false
		}
		if !Equal(Intersect(a, Union(b, c)), Union(Intersect(a, b), Intersect(a, c))) {
			return false
		}
		if !Equal(Diff(a, Union(b, c)), Intersect(Diff(a, b), Diff(a, c))) {
			return false
		}
		if SubsetEq(a, b) != (Diff(a, b).Len() == 0) {
			return false
		}
		if Disjoint(a, b) != (Intersect(a, b).Len() == 0) {
			return false
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	seed := maphash.MakeSeed()
	vals := sampleValues()
	for _, a := range vals {
		for _, b := range vals {
			if Equal(a, b) && Hash(seed, a) != Hash(seed, b) {
				t.Errorf("equal values hash differently: %s vs %s", a, b)
			}
			if Equal(a, b) != (Key(a) == Key(b)) {
				t.Errorf("Key inconsistent with Equal: %s vs %s", a, b)
			}
		}
	}
	if Hash(seed, Int(7)) != Hash(seed, Float(7.0)) {
		t.Error("Int(7) and Float(7) must hash alike (they compare equal)")
	}
	if Key(Int(7)) != Key(Float(7)) {
		t.Error("Key(Int(7)) != Key(Float(7))")
	}
}

// TestLargeIntKeysExact pins Equal ⇔ Key equality, and Hash agreeing with
// both, at the edges of float64's exact integer range: ints beyond 2^53 that
// round to the same float stay distinct, while every int a float can equal
// still keys and hashes like that float.
func TestLargeIntKeysExact(t *testing.T) {
	const p53 = int64(1) << 53
	vals := []Value{Float(math.Copysign(0, -1)), Float(0), Int(0), Float(math.NaN()),
		Float(0x1p63), Float(-0x1p63), Int(math.MaxInt64), Int(math.MinInt64), Int(math.MinInt64 + 1)}
	for _, i := range []int64{p53 - 1, p53, p53 + 1, p53 + 2} {
		vals = append(vals, Int(i), Int(-i), Float(float64(i)), Float(-float64(i)))
	}
	seed := maphash.MakeSeed()
	for _, a := range vals {
		for _, b := range vals {
			if eq := Equal(a, b); eq != (Key(a) == Key(b)) {
				t.Errorf("Equal(%s, %s) = %v but keys equal = %v", a, b, eq, !eq)
			} else if eq && Hash(seed, a) != Hash(seed, b) {
				t.Errorf("equal %s and %s hash differently", a, b)
			}
			if sgn(Compare(a, b)) != -sgn(Compare(b, a)) {
				t.Errorf("not antisymmetric: %s vs %s", a, b)
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("not transitive: %s ≤ %s ≤ %s but a > c", a, b, c)
				}
			}
		}
	}
	if Equal(Int(p53+1), Int(p53)) || Equal(Int(p53+1), Float(float64(p53))) {
		t.Error("2^53+1 equals 2^53")
	}
	if Compare(Int(p53+1), Float(float64(p53))) <= 0 || Compare(Int(math.MaxInt64), Float(0x1p63)) >= 0 {
		t.Error("int/float comparison is not exact beyond 2^53")
	}
	if !Equal(Int(math.MinInt64), Float(-0x1p63)) || Key(Int(p53)) != Key(Float(float64(p53))) {
		t.Error("exactly representable ints must equal and key like their floats")
	}
}

func TestHashQuick(t *testing.T) {
	seed := maphash.MakeSeed()
	cfg := &quick.Config{MaxCount: 300, Values: func(vs []reflect.Value, r *rand.Rand) {
		for i := range vs {
			vs[i] = reflect.ValueOf(randomValue(r, 3))
		}
	}}
	if err := quick.Check(func(a, b Value) bool {
		if Equal(a, b) {
			return Hash(seed, a) == Hash(seed, b) && Key(a) == Key(b)
		}
		return Key(a) != Key(b) // Key must be injective on inequality
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestUnnestSet(t *testing.T) {
	s := SetOf(SetOf(Int(1), Int(2)), SetOf(Int(2), Int(3)), EmptySet)
	if got := UnnestSet(s); !Equal(got, SetOf(Int(1), Int(2), Int(3))) {
		t.Errorf("UnnestSet = %s", got)
	}
	if got := UnnestSet(EmptySet); !got.IsEmptySet() {
		t.Errorf("UnnestSet(∅) = %s", got)
	}
}

func TestSetBuilder(t *testing.T) {
	b := NewSetBuilder(4)
	for _, i := range []int64{5, 1, 5, 3} {
		b.Add(Int(i))
	}
	if b.Len() != 4 {
		t.Errorf("builder Len = %d", b.Len())
	}
	if got := b.Build(); !Equal(got, SetOf(Int(1), Int(3), Int(5))) {
		t.Errorf("Build = %s", got)
	}
	// Reusable after Build.
	b.Add(Int(9))
	if got := b.Build(); !Equal(got, SetOf(Int(9))) {
		t.Errorf("second Build = %s", got)
	}
}

func TestAggregate(t *testing.T) {
	s := SetOf(Int(1), Int(2), Int(3))
	cases := []struct {
		kind AggKind
		want Value
	}{
		{AggCount, Int(3)},
		{AggSum, Int(6)},
		{AggAvg, Float(2)},
		{AggMin, Int(1)},
		{AggMax, Int(3)},
	}
	for _, c := range cases {
		got, err := Aggregate(c.kind, s)
		if err != nil || !Equal(got, c.want) {
			t.Errorf("%s(%s) = %s, %v; want %s", c.kind, s, got, err, c.want)
		}
	}
	if got, err := Aggregate(AggCount, EmptySet); err != nil || got.AsInt() != 0 {
		t.Errorf("COUNT(∅) = %s, %v", got, err)
	}
	if got, err := Aggregate(AggSum, EmptySet); err != nil || got.AsInt() != 0 {
		t.Errorf("SUM(∅) = %s, %v", got, err)
	}
	for _, k := range []AggKind{AggAvg, AggMin, AggMax} {
		if _, err := Aggregate(k, EmptySet); err == nil {
			t.Errorf("%s(∅) should error", k)
		}
	}
	if _, err := Aggregate(AggSum, SetOf(Str("x"))); err == nil {
		t.Error("SUM of strings should error")
	}
	if _, err := Aggregate(AggCount, Int(1)); err == nil {
		t.Error("aggregate of scalar should error")
	}
	if got, err := Aggregate(AggSum, SetOf(Int(1), Float(2.5))); err != nil || got.AsFloat() != 3.5 {
		t.Errorf("mixed SUM = %s, %v", got, err)
	}
	// List aggregation counts duplicates.
	if got, _ := Aggregate(AggCount, ListOf(Int(1), Int(1))); got.AsInt() != 2 {
		t.Errorf("COUNT list = %s", got)
	}
}

func TestAggKindParseAndString(t *testing.T) {
	for _, k := range []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax} {
		got, ok := ParseAggKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseAggKind(%s) = %v, %v", k, got, ok)
		}
	}
	if _, ok := ParseAggKind("MEDIAN"); ok {
		t.Error("MEDIAN should not parse")
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindNull, KindBool, KindInt, KindFloat, KindString, KindTuple, KindSet, KindList}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("Kind.String duplicate or empty: %q", s)
		}
		seen[s] = true
	}
}

// --- helpers shared with other value tests ---

func sampleValues() []Value {
	return []Value{
		Null,
		Bool(false), Bool(true),
		Int(-3), Int(0), Int(7),
		Float(-2.5), Float(0), Float(7), Float(math.NaN()),
		Str(""), Str("a"), Str("ab"),
		TupleOf(), TupleOf(F("a", Int(1))), TupleOf(F("a", Int(1)), F("b", Str("x"))),
		EmptySet, SetOf(Int(1)), SetOf(Int(1), Int(2)), SetOf(SetOf(Int(1))),
		ListOf(), ListOf(Int(1)), ListOf(Int(1), Int(1)),
	}
}

func randomIntSet(r *rand.Rand) Value {
	n := r.Intn(8)
	es := make([]Value, n)
	for i := range es {
		es[i] = Int(int64(r.Intn(10)))
	}
	return SetOf(es...)
}

func randomValue(r *rand.Rand, depth int) Value {
	max := 5
	if depth > 0 {
		max = 8
	}
	switch r.Intn(max) {
	case 0:
		return Bool(r.Intn(2) == 0)
	case 1:
		return Int(int64(r.Intn(20) - 10))
	case 2:
		return Float(float64(r.Intn(40))/4 - 5)
	case 3, 4:
		return Str(string(rune('a' + r.Intn(4))))
	case 5:
		n := r.Intn(3)
		fs := make([]Field, 0, n)
		for i := 0; i < n; i++ {
			fs = append(fs, F(string(rune('p'+i)), randomValue(r, depth-1)))
		}
		return TupleOf(fs...)
	case 6:
		n := r.Intn(4)
		es := make([]Value, n)
		for i := range es {
			es[i] = randomValue(r, depth-1)
		}
		return SetOf(es...)
	default:
		n := r.Intn(3)
		es := make([]Value, n)
		for i := range es {
			es[i] = randomValue(r, depth-1)
		}
		return ListOf(es...)
	}
}

func TestSortSliceWithLess(t *testing.T) {
	vs := []Value{Int(3), Str("a"), Int(1), Bool(true)}
	sort.Slice(vs, func(i, j int) bool { return Less(vs[i], vs[j]) })
	for i := 1; i < len(vs); i++ {
		if Compare(vs[i-1], vs[i]) > 0 {
			t.Errorf("not sorted at %d: %v", i, vs)
		}
	}
}

// TestAppendKeyMatchesKey pins the scratch-buffer encoder contract: AppendKey
// produces exactly Key's bytes, appends (preserving prefixes), and stays
// injective for the values the join family encodes.
func TestAppendKeyMatchesKey(t *testing.T) {
	vals := []Value{
		Null, True, False, Int(0), Int(-7), Float(1.0), Float(-0.0), Str(""), Str("ab"),
		TupleOf(F("a", Int(1)), F("b", Str("x"))),
		SetOf(Int(1), Int(2)), ListOf(Int(2), Int(1)),
		SetOf(TupleOf(F("k", Int(1))), TupleOf(F("k", Int(2)))),
	}
	for _, v := range vals {
		if got := string(AppendKey(nil, v)); got != Key(v) {
			t.Errorf("AppendKey(nil, %s) = %q, want %q", v, got, Key(v))
		}
		prefix := []byte("prefix")
		buf := AppendKey(prefix, v)
		if string(buf[:6]) != "prefix" || string(buf[6:]) != Key(v) {
			t.Errorf("AppendKey does not append for %s", v)
		}
	}
	// Int/float normalization: 1 and 1.0 are Equal, so keys must coincide.
	if string(AppendKey(nil, Int(1))) != string(AppendKey(nil, Float(1))) {
		t.Error("AppendKey(1) != AppendKey(1.0)")
	}
	// Injectivity across the sample (distinct values → distinct keys).
	seen := map[string]Value{}
	for _, v := range vals {
		k := Key(v)
		if prev, dup := seen[k]; dup && !Equal(prev, v) {
			t.Errorf("key collision between %s and %s", prev, v)
		}
		seen[k] = v
	}
}

// Disjoint reports a ∩ b = ∅ without materializing the intersection.
func Disjoint(a, b Value) bool {
	a.mustBe(KindSet)
	b.mustBe(KindSet)
	ae, be := a.elems(), b.elems()
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		switch c := Compare(ae[i], be[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			return false
		}
	}
	return true
}

// Hash is a 64-bit structural hash of v under the given seed, held by the
// tests below to the same invariant as Key: Equal(a, b) ⇒ Hash(seed, a) ==
// Hash(seed, b).
func Hash(seed maphash.Seed, v Value) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	writeHash(&h, v)
	return h.Sum64()
}

func writeHash(h *maphash.Hash, v Value) {
	// An int that a float can equal (Compare treats 1 == 1.0) hashes as that
	// float; any other int keeps its own tag and bits.
	if v.kind == KindInt {
		if f, exact := intAsFloat(v.i()); exact {
			writeHash(h, Float(f))
			return
		}
	}
	h.WriteByte(byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v.w)
		h.Write(buf[:])
	case KindBool:
		h.WriteByte(byte(v.w))
	case KindFloat:
		writeFloatBits(h, v.f())
	case KindString:
		writeLen(h, int(v.w))
		h.WriteString(v.str())
	case KindTuple:
		writeLen(h, int(v.w))
		for _, f := range v.fields() {
			writeLen(h, len(f.Label))
			h.WriteString(f.Label)
			writeHash(h, f.V)
		}
	case KindSet, KindList:
		writeLen(h, int(v.w))
		for _, e := range v.elems() {
			writeHash(h, e)
		}
	}
}

func writeFloatBits(h *maphash.Hash, f float64) {
	// Normalize -0.0 to 0.0 and all NaNs to one pattern so that hashing is
	// consistent with Compare.
	if f == 0 {
		f = 0
	}
	bits := math.Float64bits(f)
	if math.IsNaN(f) {
		bits = math.Float64bits(math.NaN())
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], bits)
	h.Write(buf[:])
}

func writeLen(h *maphash.Hash, n int) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(n))
	h.Write(buf[:])
}

// HasField reports whether the tuple has a field with the given label.
func (v Value) HasField(label string) bool {
	_, ok := v.Get(label)
	return ok
}

// Project returns the tuple restricted to the given labels. Missing labels
// cause a panic (projection is type-checked upstream).
func (v Value) Project(labels ...string) Value {
	fs := make([]Field, 0, len(labels))
	for _, l := range labels {
		fs = append(fs, Field{Label: l, V: v.MustGet(l)})
	}
	return TupleOf(fs...)
}

// Len returns the number of elements added so far (including duplicates).
func (b *SetBuilder) Len() int { return len(b.elems) }
