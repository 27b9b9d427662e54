package progress

import (
	"strings"
	"testing"
	"time"

	"gstm/internal/tts"
)

// at returns a counter reader that reports the given totals.
func at(commits, aborts uint64) func() (uint64, uint64) {
	return func() (uint64, uint64) { return commits, aborts }
}

func TestWatchdogObserve(t *testing.T) {
	w := NewWatchdog(10 * time.Millisecond)
	t0 := time.Unix(0, 0)

	if v := w.Observe(t0, at(0, 0)); v != VerdictNone {
		t.Fatalf("first observation = %v, want VerdictNone (anchor)", v)
	}
	// Inside the window: no verdict, and the counters are not even read.
	unread := func() (uint64, uint64) {
		t.Fatal("counters read inside the window")
		return 0, 50
	}
	if v := w.Observe(t0.Add(time.Millisecond), unread); v != VerdictNone {
		t.Fatalf("mid-window observation = %v, want VerdictNone", v)
	}
	// Window elapsed, aborts advanced, commits did not: trip.
	if v := w.Observe(t0.Add(11*time.Millisecond), at(0, 100)); v != VerdictTrip {
		t.Fatalf("zero-commit window = %v, want VerdictTrip", v)
	}
	if w.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1", w.Trips())
	}
	// Next window has commits: healthy.
	if v := w.Observe(t0.Add(22*time.Millisecond), at(5, 200)); v != VerdictHealthy {
		t.Fatalf("commit-bearing window = %v, want VerdictHealthy", v)
	}
	// A quiet window (no commits, no aborts) is not livelock.
	if v := w.Observe(t0.Add(33*time.Millisecond), at(5, 200)); v != VerdictHealthy {
		t.Fatalf("idle window = %v, want VerdictHealthy (no churn)", v)
	}
	if w.Trips() != 1 {
		t.Fatalf("Trips = %d, want still 1", w.Trips())
	}
}

func TestWatchdogReset(t *testing.T) {
	w := NewWatchdog(time.Millisecond)
	t0 := time.Unix(0, 0)
	w.Observe(t0, at(0, 0))
	w.Observe(t0.Add(2*time.Millisecond), at(0, 10))
	if w.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1", w.Trips())
	}
	w.Reset()
	if w.Trips() != 0 {
		t.Fatalf("Trips after Reset = %d, want 0", w.Trips())
	}
	// Post-reset, the first observation re-anchors.
	if v := w.Observe(t0.Add(time.Hour), at(0, 20)); v != VerdictNone {
		t.Fatalf("post-reset observation = %v, want VerdictNone", v)
	}
}

func TestWatchdogNilSafe(t *testing.T) {
	var w *Watchdog
	if v := w.Observe(time.Unix(0, 0), at(1, 2)); v != VerdictNone {
		t.Errorf("nil Observe = %v, want VerdictNone", v)
	}
	if w.Trips() != 0 {
		t.Error("nil Trips != 0")
	}
	w.Reset() // must not panic
}

func TestWatchdogDefaultWindow(t *testing.T) {
	for _, win := range []time.Duration{0, -time.Second} {
		w := NewWatchdog(win)
		if w.window != DefaultWatchdogWindow {
			t.Errorf("NewWatchdog(%v).window = %v, want %v", win, w.window, DefaultWatchdogWindow)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Escalations: 2, DeadlineExceeded: 1, WatchdogTrips: 3, EscalateThreshold: 64}
	got := s.String()
	for _, part := range []string{"2 escalations", "1 deadline-exceeded", "3 watchdog trips", "threshold 64"} {
		if !strings.Contains(got, part) {
			t.Errorf("String() = %q, missing %q", got, part)
		}
	}
}

func TestLatencyRecorder(t *testing.T) {
	r := NewLatencyRecorder()
	a := tts.Pair{Tx: 1, Thread: 2}
	b := tts.Pair{Tx: 3, Thread: 4}
	// Pair a: constant 1ms. Pair b: constant 10ms → worse tail, sorts
	// first.
	for i := 0; i < 100; i++ {
		r.Record(a, time.Millisecond)
		r.Record(b, 10*time.Millisecond)
	}
	sums := r.Summaries()
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	if sums[0].Pair != b {
		t.Errorf("worst tail first: got %+v, want %+v", sums[0].Pair, b)
	}
	if sums[0].Count != 100 || sums[1].Count != 100 {
		t.Errorf("counts = %d, %d, want 100 each", sums[0].Count, sums[1].Count)
	}
	if got := sums[1].P50; got < 0.0009 || got > 0.0011 {
		t.Errorf("pair a P50 = %v s, want ~0.001", got)
	}
	if got := sums[0].P99; got < 0.009 || got > 0.011 {
		t.Errorf("pair b P99 = %v s, want ~0.010", got)
	}
	r.Reset()
	if got := r.Summaries(); len(got) != 0 {
		t.Errorf("summaries after Reset = %d, want 0", len(got))
	}
}

func TestLatencyRecorderRingBuffer(t *testing.T) {
	r := NewLatencyRecorder()
	p := tts.Pair{Tx: 0, Thread: 0}
	// Overfill the per-pair window: the total keeps counting while the
	// sample set slides. Early slow samples (1s) are overwritten by
	// later fast ones (1µs), so the reported tail reflects the recent
	// window only.
	for i := 0; i < latencyCap; i++ {
		r.Record(p, time.Second)
	}
	for i := 0; i < latencyCap; i++ {
		r.Record(p, time.Microsecond)
	}
	sums := r.Summaries()
	if len(sums) != 1 {
		t.Fatalf("got %d summaries, want 1", len(sums))
	}
	if sums[0].Count != 2*latencyCap {
		t.Errorf("Count = %d, want %d", sums[0].Count, 2*latencyCap)
	}
	if sums[0].P99 > 0.001 {
		t.Errorf("P99 = %v s, want the old 1s samples fully evicted", sums[0].P99)
	}
}

func TestLatencyRecorderNilSafe(t *testing.T) {
	var r *LatencyRecorder
	r.Record(tts.Pair{}, time.Second) // must not panic
	if got := r.Summaries(); got != nil {
		t.Errorf("nil Summaries = %v, want nil", got)
	}
	r.Reset() // must not panic
}
