package tl2

import (
	"testing"

	"gstm/internal/race"
)

// TestReadOnlyAllocFree pins the pooled descriptor on a read-only scan:
// the read set keeps its capacity across calls, so the scan allocates
// nothing at steady state.
func TestReadOnlyAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	s := New(Options{YieldEvery: -1})
	vars := []*Var{NewVar(1), NewVar(2), NewVar(3), NewVar(4)}
	scan := func() {
		_ = s.Atomic(0, 7, func(tx *Tx) error {
			for _, v := range vars {
				_ = tx.Read(v)
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
