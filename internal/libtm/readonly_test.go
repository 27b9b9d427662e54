package libtm

import (
	"testing"

	"gstm/internal/race"
)

// TestReadOnlyAllocFree pins the point of the pooled descriptor on a
// read-only scan: it allocates nothing at steady state.
func TestReadOnlyAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	s := New(Options{Mode: FullyOptimistic, YieldEvery: -1})
	objs := []*Obj{NewObj(1), NewObj(2), NewObj(3), NewObj(4)}
	scan := func() {
		_ = s.Atomic(0, 7, func(tx *Tx) error {
			for _, o := range objs {
				_ = tx.Read(o)
			}
			return nil
		})
	}
	// Warm the pool and the read-set capacity.
	for i := 0; i < 10; i++ {
		scan()
	}
	if avg := testing.AllocsPerRun(200, scan); avg != 0 {
		t.Errorf("read-only Atomic allocates %.1f/op, want 0", avg)
	}
}
