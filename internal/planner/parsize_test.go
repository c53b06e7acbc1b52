package planner

import "testing"

// TestPartitionDegree pins the statistics-driven sizing function: ~1k rows
// per partition, floor 2, ceiling maxDegree, pass-through below 2.
func TestPartitionDegree(t *testing.T) {
	for _, tc := range []struct {
		rows float64
		max  int
		want int
	}{
		{0, 8, 2},         // no estimate: minimal parallel degree
		{100, 8, 2},       // tiny input: never below 2
		{1024, 8, 2},      // exactly one target share still partitions in two
		{3000, 8, 3},      // ceil(3000/1024)
		{10000, 8, 8},     // capped at the machine width
		{1 << 20, 16, 16}, // large inputs open the full bound
		{5000, 2, 2},      // cap below the computed degree
		{1 << 20, 1, 1},   // a 1-wide bound cannot partition
		{1 << 20, 0, 0},   // degenerate bounds pass through
		{2049, 4, 3},      // rounding is upward
	} {
		if got := PartitionDegree(tc.rows, tc.max); got != tc.want {
			t.Errorf("PartitionDegree(%v, %d) = %d, want %d", tc.rows, tc.max, got, tc.want)
		}
	}
}
