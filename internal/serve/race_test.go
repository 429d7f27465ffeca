//go:build race

package serve

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation pins that rely on it cannot hold.
const raceEnabled = true
