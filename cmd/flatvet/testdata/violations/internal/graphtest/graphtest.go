// Package graphtest is imported only by tests, so it is outside every
// binary and testonly skips it.
package graphtest

// Helper has no production caller: not reported.
func Helper() int { return 14 }
