//go:build race

// Package race reports whether the binary was built with the race
// detector, for tests whose measurements (allocation counts, timings)
// the instrumentation distorts.
package race

// Enabled reports whether the binary was built with -race.
const Enabled = true
