//go:build !race

package tmql

const raceEnabled = false
