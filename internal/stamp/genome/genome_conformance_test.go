package genome

import (
	"testing"

	"gstm/internal/stamp"
	"gstm/internal/stamp/stamptest"
)

func TestConformance(t *testing.T) {
	stamptest.Conformance(t, func() stamp.Workload { return New() })
}

// TestSpinYieldsWhileEmulating: genome's transactions model no computation,
// so with the emulation on it yields at its accesses only.
func TestSpinYieldsWhileEmulating(t *testing.T) {
	if c := stamptest.Yields(t, New(), 4); c.All.Load() == 0 || c.Spin.Load() != 0 {
		t.Errorf("%d yields, %d inside Spin; want some, none inside Spin", c.All.Load(), c.Spin.Load())
	}
}
