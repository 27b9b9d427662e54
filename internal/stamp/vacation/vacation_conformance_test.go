package vacation

import (
	"testing"

	"gstm/internal/stamp"
	"gstm/internal/stamp/stamptest"
)

func TestConformance(t *testing.T) {
	stamptest.Conformance(t, func() stamp.Workload { return New() })
}

// TestSpinYieldsWhileEmulating: with the interleaving emulation on, every
// operation's Spin(384) is preempted at least once.
func TestSpinYieldsWhileEmulating(t *testing.T) {
	c := stamptest.Yields(t, New(), 4)
	if calls := int64(sizeParams(stamp.Medium).ops); c.Spin.Load() < calls {
		t.Errorf("%d yields inside Spin for %d Spin(384) calls, want one each at least", c.Spin.Load(), calls)
	}
}
