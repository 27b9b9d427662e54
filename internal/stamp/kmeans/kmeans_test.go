package kmeans

import (
	"testing"

	"gstm/internal/stamp"
	"gstm/internal/stamp/stamptest"
	"gstm/internal/tl2"
)

func TestRunSmall(t *testing.T) {
	s := tl2.New(tl2.Options{})
	w := New()
	res, err := stamp.Run(s, w, stamp.Config{Threads: 4, Size: stamp.Small, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ThreadTimes) != 4 {
		t.Fatalf("thread times = %v", res.ThreadTimes)
	}
	if s.Commits() == 0 {
		t.Error("no transactions committed")
	}
}

func TestRunSingleThread(t *testing.T) {
	s := tl2.New(tl2.Options{})
	w := New()
	if _, err := stamp.Run(s, w, stamp.Config{Threads: 1, Size: stamp.Small, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if s.Aborts() != 0 {
		t.Errorf("single-threaded run aborted %d times", s.Aborts())
	}
}

func TestDeterministicContentAcrossSeeds(t *testing.T) {
	// Same seed → same generated points (probe via centroid start).
	mk := func(seed int64) (float64, float64) {
		s := tl2.New(tl2.Options{})
		w := New()
		if err := w.Setup(s, stamp.Config{Threads: 2, Size: stamp.Small, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		return w.cx.At(0).FloatValue(), w.cy.At(1).FloatValue()
	}
	x1, y1 := mk(5)
	x2, y2 := mk(5)
	if x1 != x2 || y1 != y2 {
		t.Error("same seed produced different content")
	}
	x3, _ := mk(6)
	if x1 == x3 {
		t.Log("different seeds produced same first coordinate (possible but unlikely)")
	}
}

func TestSizesScale(t *testing.T) {
	ps, pm, pl := sizeParams(stamp.Small), sizeParams(stamp.Medium), sizeParams(stamp.Large)
	if !(ps.points < pm.points && pm.points < pl.points) {
		t.Error("point counts must grow with size")
	}
	if !(ps.k <= pm.k && pm.k <= pl.k) {
		t.Error("k must not shrink with size")
	}
}

func TestValidateCatchesLostUpdates(t *testing.T) {
	s := tl2.New(tl2.Options{})
	w := New()
	if err := w.Setup(s, stamp.Config{Threads: 1, Size: stamp.Small, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// Without running any thread, globalDelta is 0 ≠ points*iters.
	if err := w.Validate(); err == nil {
		t.Error("Validate must fail when no work was done")
	}
}

// TestSpinYieldsWhileEmulating: with the interleaving emulation on, every
// fold's Spin(256) is preempted at least once.
func TestSpinYieldsWhileEmulating(t *testing.T) {
	c := stamptest.Yields(t, New(), 4)
	p := sizeParams(stamp.Medium)
	if calls := int64(p.points * p.iters); c.Spin.Load() < calls {
		t.Errorf("%d yields inside Spin for %d Spin(256) calls, want one each at least", c.Spin.Load(), calls)
	}
}

func TestConformance(t *testing.T) {
	stamptest.Conformance(t, func() stamp.Workload { return New() })
}
