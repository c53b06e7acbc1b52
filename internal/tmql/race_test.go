//go:build race

package tmql

// raceEnabled reports a -race build, in which sync.Pool drops a random share
// of what it is given, so a pooled path's allocation count is not exact.
const raceEnabled = true
