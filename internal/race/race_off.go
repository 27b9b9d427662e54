//go:build !race

package race

// Enabled reports whether the binary was built with -race; see
// race_on.go.
const Enabled = false
