package exec

import (
	"fmt"
	"slices"

	"tmdb/internal/value"
)

// NestIter implements the NF² nest ν[attrs→label] and its NULL-aware variant
// ν* (§6): input tuples are grouped by all attributes outside Attrs; each
// group yields one tuple of the grouping attributes extended with Label = the
// set of Attrs-projections. Under NullAware, a projection whose every
// attribute is NULL is dropped from the group set, so an outerjoin's padding
// rows nest to ∅ — the identity X △ Y = ν*[a](X ⟗ Y) depends on exactly
// this.
type NestIter struct {
	Ctx       *Ctx
	In        BatchIterator
	Attrs     []string
	Label     string
	NullAware bool

	out chunks
}

// Open materializes the input and performs the grouping.
func (n *NestIter) Open() error {
	rows, err := drainRows(n.In)
	if err != nil {
		return err
	}
	type group struct {
		rest value.Value
		b    *value.SetBuilder
	}
	var keys keyTable // slot s is groups[s]'s key
	var groups []group
	scratch := make([]byte, 0, 64) // short keys stay on the stack
	for _, r := range rows {
		if err := n.Ctx.check(); err != nil {
			return err
		}
		if r.Kind() != value.KindTuple {
			return fmt.Errorf("exec: nest over non-tuple %s", r)
		}
		var restFields, projFields []value.Field
		allNull := true
		for _, f := range r.Fields() {
			if slices.Contains(n.Attrs, f.Label) {
				projFields = append(projFields, f)
				if !f.V.IsNull() {
					allNull = false
				}
			} else {
				restFields = append(restFields, f)
			}
		}
		rest := value.TupleOf(restFields...)
		scratch = value.AppendKey(scratch[:0], rest)
		s, added := keys.intern(scratch)
		if added {
			groups = append(groups, group{rest: rest, b: value.NewSetBuilder(1)})
		}
		if n.NullAware && allNull {
			continue // ν*: NULL padding nests to the empty set
		}
		groups[s].b.Add(value.TupleOf(projFields...))
	}
	out := make([]value.Value, 0, len(groups))
	for _, g := range groups {
		out = append(out, g.rest.Extend(n.Label, g.b.Build()))
	}
	n.out = chunks{rows: out}
	return nil
}

// NextBatch returns the next batch of group tuples.
func (n *NestIter) NextBatch() ([]value.Value, bool, error) {
	b, ok := n.out.next()
	return b, ok, nil
}

// Close releases the grouped output.
func (n *NestIter) Close() error { n.out = chunks{}; return nil }

// stableBatches marks the batches as subslices of the grouped output, which
// is built once at Open and never changed.
func (*NestIter) stableBatches() {}

// UnnestIter implements μ[attr]: each input tuple t yields one tuple per
// element of the set t.attr; tuples with t.attr = ∅ produce nothing (the
// dangling-tuple loss that motivates the nest join). Tuple-typed elements are
// concatenated into the remainder of t; scalar elements are re-attached under
// the attribute's own label.
type UnnestIter struct {
	Ctx  *Ctx
	In   BatchIterator
	Attr string
	// Scalar selects the scalar-element behavior (set by the planner from
	// the algebra node's typing).
	Scalar bool

	out outBuf
}

// Open opens the input.
func (u *UnnestIter) Open() error { return u.In.Open() }

// NextBatch flattens input batches until one yields at least one tuple.
func (u *UnnestIter) NextBatch() ([]value.Value, bool, error) {
	for {
		bt, ok, err := u.In.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		if err := u.Ctx.checkBatch(); err != nil {
			return nil, false, err
		}
		out := u.out.reset()
		for _, t := range bt {
			s, found := t.Get(u.Attr)
			if !found {
				return nil, false, fmt.Errorf("exec: unnest attribute %s missing in %s", u.Attr, t)
			}
			if s.Kind() != value.KindSet {
				return nil, false, fmt.Errorf("exec: unnest attribute %s is not a set in %s", u.Attr, t)
			}
			rest := t.Drop(u.Attr)
			for _, e := range s.Elems() {
				switch {
				case u.Scalar:
					out = append(out, rest.Extend(u.Attr, e))
				case e.Kind() != value.KindTuple:
					return nil, false, fmt.Errorf("exec: unnest element %s is not a tuple", e)
				default:
					out = append(out, rest.Concat(e))
				}
			}
		}
		if u.out.rows = out; len(out) > 0 {
			return out, true, nil
		}
	}
}

// Close returns the output buffer and closes the input.
func (u *UnnestIter) Close() error { u.out.release(); return u.In.Close() }

// SetOpIter implements plan-level Union / Intersect / Diff by materializing
// the right input into a key set and streaming the left. Union additionally
// emits right elements unseen on the left, once the left is exhausted.
type SetOpIter struct {
	Ctx *Ctx
	// Kind: 0 = union, 1 = intersect, 2 = diff (mirrors algebra.SetOpKind).
	Kind int
	L, R BatchIterator

	// right keys the distinct right elements, slot s being rightRows[s];
	// inLeft[s] records that slot s's element also occurred on the left.
	right     keyTable
	rightRows []value.Value
	inLeft    []bool
	// seen keys the distinct left elements.
	seen     keyTable
	leftDone bool
	out      outBuf
}

// Open materializes the right input and opens the left.
func (s *SetOpIter) Open() error {
	rows, err := drainRows(s.R)
	if err != nil {
		return err
	}
	s.right, s.seen, s.rightRows = keyTable{}, keyTable{}, s.rightRows[:0]
	scratch := make([]byte, 0, 64) // short keys stay on the stack
	for _, r := range rows {
		scratch = value.AppendKey(scratch[:0], r)
		if _, added := s.right.intern(scratch); added {
			s.rightRows = append(s.rightRows, r)
		}
	}
	s.inLeft = make([]bool, len(s.rightRows))
	s.leftDone = false
	return s.L.Open()
}

// NextBatch returns the next batch of the combination.
func (s *SetOpIter) NextBatch() ([]value.Value, bool, error) {
	for !s.leftDone {
		bt, ok, err := s.L.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.leftDone = true
			break
		}
		if err := s.Ctx.checkBatch(); err != nil {
			return nil, false, err
		}
		out := s.out.reset()
		scratch := make([]byte, 0, 64) // short keys stay on the stack
		for _, v := range bt {
			scratch = value.AppendKey(scratch[:0], v)
			if _, added := s.seen.intern(scratch); !added {
				continue
			}
			rs := s.right.find(scratch)
			if rs >= 0 {
				s.inLeft[rs] = true
			}
			// Union passes every left element, intersect those in the right,
			// diff those not in it.
			if s.Kind == 0 || (rs >= 0) == (s.Kind == 1) {
				out = append(out, v)
			}
		}
		if s.out.rows = out; len(out) > 0 {
			return out, true, nil
		}
	}
	// Union's tail: the right elements not already emitted, in one batch.
	out := s.out.reset()
	if s.Kind == 0 {
		for rs, r := range s.rightRows {
			if !s.inLeft[rs] {
				s.inLeft[rs] = true
				out = append(out, r)
			}
		}
	}
	if s.out.rows = out; len(out) == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// Close releases state and the output buffer and closes the left input.
func (s *SetOpIter) Close() error {
	s.out.release()
	s.right, s.seen, s.rightRows, s.inLeft = keyTable{}, keyTable{}, nil, nil
	return s.L.Close()
}
