package value

import "fmt"

// Aggregate functions over set and list values — COUNT, SUM, AVG, MIN, MAX —
// as allowed between query blocks in TM predicates (x.a OP H(z), §4.1).

// AggKind identifies an aggregate function.
type AggKind uint8

// The aggregate functions of TM's SFW sublanguage.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the TM keyword for the aggregate.
func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AGG(%d)", uint8(a))
	}
}

// ParseAggKind maps a TM keyword to its AggKind.
func ParseAggKind(s string) (AggKind, bool) {
	switch s {
	case "COUNT":
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "AVG":
		return AggAvg, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	}
	return 0, false
}

// Aggregate applies the aggregate to a set or list value. COUNT of anything
// is its cardinality. SUM/AVG require numeric elements (SUM ∅ = 0; AVG ∅ is
// an error, as is MIN/MAX of ∅ — TM has no NULL to return).
func Aggregate(kind AggKind, coll Value) (Value, error) {
	if coll.kind != KindSet && coll.kind != KindList {
		return Value{}, fmt.Errorf("aggregate %s: operand is %s, not a collection", kind, coll.kind)
	}
	es := coll.elems()
	switch kind {
	case AggCount:
		return Int(int64(len(es))), nil
	case AggSum:
		return sum(es)
	case AggAvg:
		if len(es) == 0 {
			return Value{}, fmt.Errorf("AVG of empty collection")
		}
		s, err := sum(es)
		if err != nil {
			return Value{}, err
		}
		return Float(s.AsFloat() / float64(len(es))), nil
	case AggMin, AggMax:
		if len(es) == 0 {
			return Value{}, fmt.Errorf("%s of empty collection", kind)
		}
		best := es[0]
		for _, e := range es[1:] {
			c := Compare(e, best)
			if (kind == AggMin && c < 0) || (kind == AggMax && c > 0) {
				best = e
			}
		}
		return best, nil
	}
	return Value{}, fmt.Errorf("unknown aggregate %d", kind)
}

func sum(es []Value) (Value, error) {
	allInt := true
	var si int64
	var sf float64
	for _, e := range es {
		switch e.kind {
		case KindInt:
			si += e.i()
			sf += float64(e.i())
		case KindFloat:
			allInt = false
			sf += e.f()
		default:
			return Value{}, fmt.Errorf("SUM: non-numeric element %s", e)
		}
	}
	if allInt {
		return Int(si), nil
	}
	return Float(sf), nil
}
