//go:build race

package core

// raceEnabled skips the search allocation guard when the race detector
// is on: under it sync.Pool drops a random share of its Puts, so pooled
// inference scratch is reallocated at random.
const raceEnabled = true
