package value

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// Hashing of complex-object values, used by the hash-based join family
// (hash join, hash semijoin/antijoin, hash nest join) and by grouping.
//
// The invariant is the usual one: Equal(a, b) ⇒ Hash(seed, a) == Hash(seed, b).
// Because sets and tuples are canonical, structural recursion is sufficient —
// no order-independent mixing is needed.

// Hash returns a 64-bit hash of v under the given seed.
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
		if f, exact := intAsFloat(v.i); exact {
			writeHash(h, Float(f))
			return
		}
	}
	h.WriteByte(byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v.i))
		h.Write(buf[:])
	case KindBool:
		if v.b {
			h.WriteByte(1)
		} else {
			h.WriteByte(0)
		}
	case KindFloat:
		writeFloatBits(h, v.f)
	case KindString:
		writeLen(h, len(v.s))
		h.WriteString(v.s)
	case KindTuple:
		writeLen(h, len(v.tuple))
		for _, f := range v.tuple {
			writeLen(h, len(f.Label))
			h.WriteString(f.Label)
			writeHash(h, f.V)
		}
	case KindSet, KindList:
		writeLen(h, len(v.elems))
		for _, e := range v.elems {
			writeHash(h, e)
		}
	}
}

// intAsFloat returns float64(i) and whether that conversion is exact — true
// for every |i| <= 2^53 and for the larger ints that happen to be
// representable. Only such an int can equal a float under Compare.
func intAsFloat(i int64) (float64, bool) {
	f := float64(i)
	return f, f < 0x1p63 && int64(f) == i
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
		// Same normalization as hashing: an int a float can equal encodes as
		// that float, any other int under its own tag.
		if f, exact := intAsFloat(v.i); exact {
			return AppendKey(buf, Float(f))
		}
		return binary.LittleEndian.AppendUint64(append(buf, byte(KindInt)), uint64(v.i))
	}
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		if v.b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case KindFloat:
		f := v.f
		if f == 0 {
			f = 0
		}
		bits := math.Float64bits(f)
		if math.IsNaN(f) {
			bits = math.Float64bits(math.NaN())
		}
		buf = binary.LittleEndian.AppendUint64(buf, bits)
	case KindString:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.s)))
		buf = append(buf, v.s...)
	case KindTuple:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.tuple)))
		for _, f := range v.tuple {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Label)))
			buf = append(buf, f.Label...)
			buf = AppendKey(buf, f.V)
		}
	case KindSet, KindList:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.elems)))
		for _, e := range v.elems {
			buf = AppendKey(buf, e)
		}
	}
	return buf
}
