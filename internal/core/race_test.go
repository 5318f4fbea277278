//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool discards items at
// random and allocation counts measure the detector, not the code.
const raceEnabled = true
