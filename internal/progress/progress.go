// Package progress holds the progress-guarantee machinery shared by
// both STM runtimes (internal/tl2, internal/libtm): the livelock
// watchdog that samples commit/abort counters over a sliding window and
// detects zero-commit storms, and the per-(transaction, thread) Atomic
// latency recorder whose percentiles quantify the per-call tail the
// deadline / escalation ladder is meant to bound.
//
// The paper's pipeline reduces *variance across runs*; this package is
// about the complementary tail *within* a run: with unbounded retries a
// single Atomic call can abort forever under a commit-abort storm (see
// internal/fault), which is exactly the starvation pathology the
// multi-version starvation-freedom line of work formalizes. The
// runtimes use the watchdog's verdicts to lower their irrevocable
// escalation threshold so a livelocked transaction reaches the
// guaranteed-to-commit serial path sooner.
package progress

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/stats"
	"gstm/internal/tts"
)

// DefaultWatchdogWindow is the sliding sample window of the livelock
// watchdog. It is deliberately much longer than a healthy transaction
// (microseconds) so a trip means sustained zero-commit churn, not an
// unlucky scheduling gap.
const DefaultWatchdogWindow = 10 * time.Millisecond

// Watchdog detects livelock by sampling a pair of monotonically
// increasing commit/abort counters: if a full window elapses in which
// aborts advanced but commits did not, the system is churning without
// progress. Observation is driven by the abort path (no background
// goroutine to manage), so an idle STM costs nothing and a livelocked
// one — which by definition aborts constantly — samples promptly.
type Watchdog struct {
	window time.Duration
	trips  atomic.Uint64

	mu          sync.Mutex
	lastSample  time.Time
	lastCommits uint64
	lastAborts  uint64
}

// NewWatchdog returns a watchdog with the given window (≤ 0 means
// DefaultWatchdogWindow).
func NewWatchdog(window time.Duration) *Watchdog {
	if window <= 0 {
		window = DefaultWatchdogWindow
	}
	return &Watchdog{window: window}
}

// Verdict is the outcome of one watchdog observation.
type Verdict int

// Observation outcomes.
const (
	// VerdictNone means the window has not elapsed yet.
	VerdictNone Verdict = iota
	// VerdictHealthy means the closed window contained commits.
	VerdictHealthy
	// VerdictTrip means the closed window had aborts but zero commits:
	// the livelock signature.
	VerdictTrip
)

// Observe classifies the window ending at now. Safe for concurrent use;
// returns VerdictNone until a full window has elapsed since the last
// closed window, then reads the counters (counts returns commits and
// aborts) and classifies that window. counts is called only to anchor or
// close a window, so a caller may make it as costly as a sum over
// stripes. Nil-safe (returns VerdictNone).
func (w *Watchdog) Observe(now time.Time, counts func() (commits, aborts uint64)) Verdict {
	if w == nil {
		return VerdictNone
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.lastSample.IsZero() {
		w.lastSample = now
		w.lastCommits, w.lastAborts = counts()
		return VerdictNone
	}
	if now.Sub(w.lastSample) < w.window {
		return VerdictNone
	}
	commits, aborts := counts()
	dc := commits - w.lastCommits
	da := aborts - w.lastAborts
	w.lastSample, w.lastCommits, w.lastAborts = now, commits, aborts
	if dc == 0 && da > 0 {
		w.trips.Add(1)
		return VerdictTrip
	}
	return VerdictHealthy
}

// Trips returns how many zero-commit windows the watchdog has seen.
func (w *Watchdog) Trips() uint64 {
	if w == nil {
		return 0
	}
	return w.trips.Load()
}

// Reset clears the sample anchor and trip count (between runs).
func (w *Watchdog) Reset() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.lastSample = time.Time{}
	w.lastCommits, w.lastAborts = 0, 0
	w.mu.Unlock()
	w.trips.Store(0)
}

// Stats is the progress-guarantee snapshot an STM reports alongside its
// commit/abort counters.
type Stats struct {
	// Escalations counts Atomic calls that fell back to the irrevocable
	// serial path after exhausting their escalation threshold.
	Escalations uint64
	// DeadlineExceeded counts Atomic calls that returned ErrDeadline.
	DeadlineExceeded uint64
	// WatchdogTrips counts zero-commit watchdog windows.
	WatchdogTrips uint64
	// EscalateThreshold is the current effective abort threshold (the
	// watchdog lowers it under livelock pressure).
	EscalateThreshold int64
	// Sheds counts Atomic calls rejected by the overload limiter with
	// ErrShed before touching the runtime (internal/overload).
	Sheds uint64
}

// String renders the snapshot compactly for run summaries.
func (s Stats) String() string {
	return fmt.Sprintf("progress: %d escalations, %d deadline-exceeded, %d watchdog trips, %d sheds, threshold %d",
		s.Escalations, s.DeadlineExceeded, s.WatchdogTrips, s.Sheds, s.EscalateThreshold)
}

// latencyCap bounds how many samples one (transaction, thread) pair
// retains. Beyond the cap, samples overwrite ring-buffer style, keeping
// a sliding window of the most recent calls.
const latencyCap = 2048

// pairSamples is one pair's sliding latency window.
type pairSamples struct {
	seconds []float64
	next    int
	total   uint64
}

// LatencyRecorder collects per-(transaction, thread) Atomic call
// latencies for percentile reporting. Attach one via the runtimes'
// SetLatencyRecorder; recording costs one mutex acquisition per Atomic
// call, so it is off by default and enabled by the harness and
// cmd/gstm, not by production fast paths.
type LatencyRecorder struct {
	mu     sync.Mutex
	byPair map[uint32]*pairSamples
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{byPair: make(map[uint32]*pairSamples)}
}

// Record folds one Atomic call latency for the pair. Nil-safe.
func (r *LatencyRecorder) Record(p tts.Pair, d time.Duration) {
	if r == nil {
		return
	}
	k := p.Key()
	r.mu.Lock()
	ps := r.byPair[k]
	if ps == nil {
		ps = &pairSamples{}
		r.byPair[k] = ps
	}
	ps.total++
	if len(ps.seconds) < latencyCap {
		ps.seconds = append(ps.seconds, d.Seconds())
	} else {
		ps.seconds[ps.next] = d.Seconds()
		ps.next = (ps.next + 1) % latencyCap
	}
	r.mu.Unlock()
}

// PairLatency is the percentile summary of one pair's Atomic calls.
type PairLatency struct {
	Pair  tts.Pair
	Count uint64
	// P50, P95 and P99 are in seconds, computed with stats.Percentile
	// over the retained sample window.
	P50, P95, P99 float64
}

// Summaries returns the per-pair percentile summaries, sorted by
// descending P99 (the worst tails first), then by pair key for
// stability. Nil-safe (returns nil).
func (r *LatencyRecorder) Summaries() []PairLatency {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]PairLatency, 0, len(r.byPair))
	for k, ps := range r.byPair {
		pl := PairLatency{Pair: tts.PairFromKey(k), Count: ps.total}
		pl.P50, _ = stats.Percentile(ps.seconds, 50)
		pl.P95, _ = stats.Percentile(ps.seconds, 95)
		pl.P99, _ = stats.Percentile(ps.seconds, 99)
		out = append(out, pl)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].P99 != out[j].P99 {
			return out[i].P99 > out[j].P99
		}
		return out[i].Pair.Key() < out[j].Pair.Key()
	})
	return out
}

// P99 returns the 99th-percentile latency in seconds across every
// retained sample of every pair — the single-number tail signal the
// overload limiter samples once per window. Zero when nothing has been
// recorded. Nil-safe.
func (r *LatencyRecorder) P99() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	var all []float64
	for _, ps := range r.byPair {
		all = append(all, ps.seconds...)
	}
	r.mu.Unlock()
	p, _ := stats.Percentile(all, 99)
	return p
}

// Reset drops all recorded samples. Nil-safe.
func (r *LatencyRecorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.byPair = make(map[uint32]*pairSamples)
	r.mu.Unlock()
}
