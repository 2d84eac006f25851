//go:build race

package slam

// raceEnabled reports that the race detector is compiled in, which makes a
// pipeline run about eight times slower.
const raceEnabled = true
