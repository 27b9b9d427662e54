package intruder

import (
	"testing"

	"gstm/internal/stamp"
	"gstm/internal/stamp/stamptest"
)

func TestConformance(t *testing.T) {
	stamptest.Conformance(t, func() stamp.Workload { return New() })
}

// TestSpinYieldsWhileEmulating: with the interleaving emulation on, every
// fragment's Spin(256) in reassembly is preempted at least once.
func TestSpinYieldsWhileEmulating(t *testing.T) {
	c := stamptest.Yields(t, New(), 4)
	p := sizeParams(stamp.Medium)
	if calls := int64(p.flows * p.frags); c.Spin.Load() < calls {
		t.Errorf("%d yields inside Spin for %d Spin(256) calls, want one each at least", c.Spin.Load(), calls)
	}
}
