package exec

import "strings"

// PlanForm returns the form a hash build over the operator tree it is kept
// under in a snapshot's memo, and whether the tree has one.
func PlanForm(it BatchIterator) (string, bool) {
	var b strings.Builder
	var leaves []*TableScan
	ok := appendPlanForm(&b, it, &leaves)
	return b.String(), ok
}
