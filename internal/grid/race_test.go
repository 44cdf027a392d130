//go:build race

package grid

// raceEnabled reports whether the race detector instruments this
// binary. Race instrumentation allocates per synchronization event, so
// allocation-bound assertions are meaningless under -race and skip.
const raceEnabled = true
