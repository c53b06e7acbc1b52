package value

import (
	"encoding/binary"
	"math"
)

// The identity of complex-object values as bytes, used by the hash-based join
// family (hash join, hash semijoin/antijoin, hash nest join), the persistent
// indexes and grouping: Equal(a, b) ⇔ Key(a) == Key(b). Because sets and
// tuples are canonical, structural recursion is sufficient — no
// order-independent mixing is needed.

// intAsFloat returns float64(i) and whether that conversion is exact — true
// for every |i| <= 2^53 and for the larger ints that happen to be
// representable. Only such an int can equal a float under Compare.
func intAsFloat(i int64) (float64, bool) {
	f := float64(i)
	return f, f < 0x1p63 && int64(f) == i
}

// Key returns a canonical string encoding of v suitable for use as a Go map
// key. Two values are Equal iff their Keys are identical. Used where exact
// (collision-free) grouping is required.
func Key(v Value) string {
	buf := make([]byte, 0, 64)
	buf = AppendKey(buf, v)
	return string(buf)
}

// AppendKey appends the canonical encoding of v (the same bytes Key returns)
// onto buf and returns the extended slice. The encoding is self-delimiting —
// every variable-length component is length-prefixed — so concatenated
// encodings of a fixed number of values stay injective. Hot paths (the hash
// join family) keep a scratch buffer per iterator and look up Go maps via
// string(buf), which the compiler compiles without allocating; only inserting
// a previously unseen key materializes a string.
func AppendKey(buf []byte, v Value) []byte {
	if v.kind == KindInt {
		// An int a float can equal (Compare treats 1 == 1.0) encodes as that
		// float, any other int under its own tag.
		if f, exact := intAsFloat(v.i()); exact {
			return AppendKey(buf, Float(f))
		}
		return binary.LittleEndian.AppendUint64(append(buf, byte(KindInt)), v.w)
	}
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		buf = append(buf, byte(v.w))
	case KindFloat:
		f := v.f()
		if f == 0 {
			f = 0
		}
		bits := math.Float64bits(f)
		if math.IsNaN(f) {
			bits = math.Float64bits(math.NaN())
		}
		buf = binary.LittleEndian.AppendUint64(buf, bits)
	case KindString:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.w))
		buf = append(buf, v.str()...)
	case KindTuple:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.w))
		for _, f := range v.fields() {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Label)))
			buf = append(buf, f.Label...)
			buf = AppendKey(buf, f.V)
		}
	case KindSet, KindList:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.w))
		for _, e := range v.elems() {
			buf = AppendKey(buf, e)
		}
	}
	return buf
}
