//go:build race

package fleet

// raceEnabled reports that the race detector, which changes what and how much
// the runtime allocates, is compiled in.
const raceEnabled = true
