//go:build race

package flat

// raceEnabled reports a race-detector build, whose sync.Pool drops items at
// random.
const raceEnabled = true
