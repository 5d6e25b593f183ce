//go:build race

package graph

// raceEnabled reports a -race build, where sync.Pool drops a share of
// the items put back on purpose and allocation counts stop meaning
// anything.
const raceEnabled = true
