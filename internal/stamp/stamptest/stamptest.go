// Package stamptest provides the shared conformance suite all STAMP
// kernel ports must pass: multi-threaded runs validate their semantic
// invariants, single-threaded runs are conflict-free, workload content
// is seed-deterministic, and with the STM's interleaving emulation off
// no transaction yields.
package stamptest

import (
	"runtime"
	"sync/atomic"
	"testing"

	"gstm/internal/stamp"
	"gstm/internal/tl2"
)

// Conformance runs the standard kernel checks against fresh workloads
// produced by mk.
func Conformance(t *testing.T, mk func() stamp.Workload) {
	t.Helper()

	t.Run("NameNonEmpty", func(t *testing.T) {
		if mk().Name() == "" {
			t.Fatal("workload has no name")
		}
	})

	t.Run("SingleThreadNoAborts", func(t *testing.T) {
		s := tl2.New(tl2.Options{})
		w := mk()
		if _, err := stamp.Run(s, w, stamp.Config{Threads: 1, Size: stamp.Small, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		if s.Aborts() != 0 {
			t.Errorf("single-threaded run aborted %d times", s.Aborts())
		}
		if s.Commits() == 0 {
			t.Error("no commits recorded")
		}
	})

	t.Run("MultiThreadValidates", func(t *testing.T) {
		for _, threads := range []int{2, 4, 8} {
			s := tl2.New(tl2.Options{})
			w := mk()
			res, err := stamp.Run(s, w, stamp.Config{Threads: threads, Size: stamp.Small, Seed: 7})
			if err != nil {
				t.Fatalf("threads=%d: %v", threads, err)
			}
			if len(res.ThreadTimes) != threads {
				t.Fatalf("threads=%d: got %d thread times", threads, len(res.ThreadTimes))
			}
			for i, d := range res.ThreadTimes {
				if d <= 0 {
					t.Errorf("threads=%d: thread %d time %v", threads, i, d)
				}
			}
		}
	})

	t.Run("RepeatedRunsIndependent", func(t *testing.T) {
		// Reusing the same workload object across runs must not leak
		// state between them (Setup reallocates).
		s := tl2.New(tl2.Options{})
		w := mk()
		for run := 0; run < 3; run++ {
			if _, err := stamp.Run(s, w, stamp.Config{Threads: 2, Size: stamp.Small, Seed: int64(run)}); err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
		}
	})

	t.Run("MediumSizeValidates", func(t *testing.T) {
		if testing.Short() {
			t.Skip("short mode")
		}
		s := tl2.New(tl2.Options{})
		w := mk()
		if _, err := stamp.Run(s, w, stamp.Config{Threads: 4, Size: stamp.Medium, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("NoYieldsWithoutInterleaving", func(t *testing.T) {
		// With the emulation off a kernel's transactions, stamp.Spin's
		// computation included, never reach a suspension point.
		if c := Yields(t, mk(), -1); c.All.Load() != 0 {
			t.Errorf("YieldEvery -1: %d yields (%d inside stamp.Spin), want none", c.All.Load(), c.Spin.Load())
		}
	})
}

// YieldCounter counts the suspension points of an STM it is installed in
// as Options.Yield (it does not yield): all of them, and apart those raised
// inside stamp.Spin, told by the call stack.
type YieldCounter struct {
	All, Spin atomic.Int64
}

// Yield is the Options.Yield hook.
func (c *YieldCounter) Yield() {
	c.All.Add(1)
	var pcs [16]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		f, more := frames.Next()
		if f.Function == "gstm/internal/stamp.Spin" {
			c.Spin.Add(1)
			return
		}
		if !more {
			return
		}
	}
}

// Yields runs w once, single-threaded at Medium size, on an STM with the
// given YieldEvery, and returns the count of its suspension points.
func Yields(t *testing.T, w stamp.Workload, yieldEvery int) *YieldCounter {
	t.Helper()
	c := &YieldCounter{}
	s := tl2.New(tl2.Options{YieldEvery: yieldEvery, Yield: c.Yield})
	if _, err := stamp.Run(s, w, stamp.Config{Threads: 1, Size: stamp.Medium, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return c
}
