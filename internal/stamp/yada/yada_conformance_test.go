package yada

import (
	"testing"

	"gstm/internal/stamp"
	"gstm/internal/stamp/stamptest"
)

func TestConformance(t *testing.T) {
	stamptest.Conformance(t, func() stamp.Workload { return New() })
}

// TestSpinYieldsWhileEmulating: with the interleaving emulation on, every
// refinement's Spin(512) is preempted at least once.
func TestSpinYieldsWhileEmulating(t *testing.T) {
	w := New()
	c := stamptest.Yields(t, w, 4)
	if calls := int64(w.total()); c.Spin.Load() < calls {
		t.Errorf("%d yields inside Spin for %d Spin(512) calls, want one each at least", c.Spin.Load(), calls)
	}
}
