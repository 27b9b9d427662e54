package labyrinth

import (
	"runtime"
	"testing"

	"gstm/internal/race"
	"gstm/internal/stamp"
	"gstm/internal/stamp/stamptest"
	"gstm/internal/tl2"
)

func TestConformance(t *testing.T) {
	stamptest.Conformance(t, func() stamp.Workload { return New() })
}

// TestSpinYieldsWhileEmulating: with the interleaving emulation on, every
// claim whose Spin(16·len(path)) reaches 256 units is preempted at least
// once.
func TestSpinYieldsWhileEmulating(t *testing.T) {
	w := New()
	c := stamptest.Yields(t, w, 4)
	var calls int64
	for _, path := range w.paths {
		if 16*len(path) >= 256 {
			calls++
		}
	}
	if calls == 0 || c.Spin.Load() < calls {
		t.Errorf("%d yields inside Spin for %d Spin(n ≥ 256) calls, want one each at least", c.Spin.Load(), calls)
	}
}

// TestPlanningAllocatesOnlyPaths pins the per-thread planning scratch: a
// Medium run allocates its grid, its STM descriptors and the claimed paths,
// not a grid copy and a wavefront per plan (those came to ≈ 13 MB).
func TestPlanningAllocatesOnlyPaths(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow allocations are not the kernel's")
	}
	const limit = 1 << 20
	s := tl2.New(tl2.Options{YieldEvery: -1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := stamp.Run(s, New(), stamp.Config{Threads: 2, Size: stamp.Medium, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("a Medium run allocated %d bytes, want < %d", got, limit)
	}
}
