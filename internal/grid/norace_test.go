//go:build !race

package grid

// raceEnabled is false in uninstrumented builds; see race_test.go.
const raceEnabled = false
