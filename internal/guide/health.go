package guide

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The health monitor watches the controller's own decision stream for
// evidence that the trained model no longer matches the live workload:
// a high unknown-state rate (the automaton keeps landing in states the
// model never saw) or a high escape rate (admissible pairs keep
// starving until the progress escape frees them). Either means guidance
// is paying its cost without buying variance reduction — a stale or
// mismatched model must cost throughput, never liveness.
//
// Decisions are aggregated in fixed-size windows of admits. When a
// window's rates cross the trip thresholds the controller steps down
// the degradation ladder:
//
//	LevelGuided → LevelRelaxed → LevelPassthrough
//
// LevelRelaxed keeps gating but selects destination sets with a larger
// effective Tfactor (more pairs admissible, shorter holds).
// LevelPassthrough admits everything immediately — the controller keeps
// following the event stream but stops holding anyone.
//
// Re-arm is probing: after RearmWindows consecutive healthy windows the
// controller steps back up one level. At LevelPassthrough every admit
// is healthy by construction, so the probe always eventually fires; if
// the model still mismatches, the next window at the stricter level
// trips again and the controller settles into a cheap
// mostly-passthrough duty cycle. If the workload has drifted back into
// known territory, the probe sticks and full guidance resumes.

// Level is a rung of the degradation ladder.
type Level int32

// Degradation ladder rungs, in increasing order of degradation.
const (
	// LevelGuided is full guidance at the configured Tfactor.
	LevelGuided Level = iota
	// LevelRelaxed gates with a RelaxFactor× larger effective Tfactor.
	LevelRelaxed
	// LevelPassthrough admits everything immediately.
	LevelPassthrough
)

// String renders the level for reports.
func (l Level) String() string {
	switch l {
	case LevelGuided:
		return "guided"
	case LevelRelaxed:
		return "relaxed"
	case LevelPassthrough:
		return "passthrough"
	}
	return "unknown"
}

// Health-monitor settings (see Options for the settable ones).
const (
	// DefaultHealthWindow is the number of admits per evaluation window.
	DefaultHealthWindow = 256
	// DefaultUnknownTrip is the unknown-state rate within one window
	// that trips the ladder.
	DefaultUnknownTrip = 0.5
	// DefaultEscapeTrip is the progress-escape rate within one window
	// that trips the ladder.
	DefaultEscapeTrip = 0.25
	// DefaultRelaxFactor is the Tfactor multiplier at LevelRelaxed.
	DefaultRelaxFactor = 4.0
	// DefaultRearmWindows is how many consecutive healthy windows
	// step the ladder back up one level.
	DefaultRearmWindows = 2
	// maxThreadCounters bounds the per-thread counter table.
	maxThreadCounters = 4096
	// healthBatchDivisor sets how many admits a stripe counter gathers
	// before they reach the shared window count: window/divisor rounded
	// down to a power of two, so a window's rates are off by a few
	// stripes/divisor of a window at most, and windows below 2×divisor
	// count every admit as it happens.
	healthBatchDivisor = 16
)

// healthMonitor accumulates one window of decision outcomes. Event
// recording is atomic (the Admit hot path); window evaluation is
// serialized by mu.
type healthMonitor struct {
	// Read on every admit, never written after New.
	window       uint64
	batch        uint64 // admits a stripe counter gathers per flush: a power of two, 1 for none
	rearmWindows int

	// Written by flushes and bad outcomes, kept off the line above.
	_        [64]byte
	admits   atomic.Uint64 // running admit count; a window closes at each multiple of window
	unknowns atomic.Uint64 // unknown-state passes this window
	escapes  atomic.Uint64 // progress escapes this window

	mu      sync.Mutex
	healthy int // consecutive healthy windows at the current level
}

// stripe is one thread's share of every per-transaction counter, padded
// so no two threads' stripes share a cache line (or an adjacent-line
// prefetch pair). Thread IDs past the table alias modulo its length, so
// the operations stay atomic; Stats sums the stripes. A finished Admit
// adds one to exactly one of immediate and holds (see note).
// commit is the latest tracked commit: pair key<<32 | low 32 instance bits.
type stripe struct {
	immediate, holds, futile               atomic.Uint64
	escapes, unknown, relaxed, passthrough atomic.Uint64
	irrevocable, sheds, holdNanos          atomic.Uint64
	commit                                 atomic.Uint64
	_                                      [128 - 11*8]byte
}

// Level returns the controller's current degradation level.
func (c *Controller) Level() Level {
	return Level(c.level.Load())
}

// stripe returns the counter stripe for the pair's thread.
func (c *Controller) stripe(thread uint16) *stripe {
	i := int(thread)
	if i >= len(c.perThread) { // off the hot path: no division for IDs in range
		i %= len(c.perThread)
	}
	return &c.perThread[i]
}

// note records one finished admit in the health window: the nth of its
// disposition on its stripe, as that counter's Add returned it. Bad
// outcomes are tallied as they happen; the admits themselves reach the
// shared count a batch at a time, carried by every batch-th one (batch is
// a power of two, so that test is a mask, not a division).
func (c *Controller) note(nth uint64, unknown, escaped bool) {
	h := c.health
	if h == nil {
		return
	}
	if unknown {
		h.unknowns.Add(1)
	}
	if escaped {
		h.escapes.Add(1)
	}
	if nth&(h.batch-1) == 0 {
		c.countAdmits(h.batch)
	}
}

// healthBatch is the admit batch for a window of w: w/healthBatchDivisor
// rounded down to a power of two, at least 1.
func healthBatch(w uint64) uint64 {
	b := w / healthBatchDivisor
	if b <= 1 {
		return 1
	}
	return 1 << (bits.Len64(b) - 1)
}

// countAdmits adds n < window finished admits to the window count and
// evaluates the ladder when that crosses a window boundary.
func (c *Controller) countAdmits(n uint64) {
	h := c.health
	if after := h.admits.Add(n); after/h.window != (after-n)/h.window {
		c.evaluateWindow()
	}
}

// evaluateWindow closes the current window: trip the ladder on bad
// rates, step back up after enough consecutive healthy windows. Held
// transactions observe a level change on their next polled re-check.
func (c *Controller) evaluateWindow() {
	h := c.health
	h.mu.Lock()
	defer h.mu.Unlock()
	// Swap, don't reset-after-read: outcomes recorded while we hold the
	// lock land in the next window instead of vanishing.
	u := float64(h.unknowns.Swap(0)) / float64(h.window)
	e := float64(h.escapes.Swap(0)) / float64(h.window)
	lvl := c.Level()
	if u >= DefaultUnknownTrip || e >= DefaultEscapeTrip {
		h.healthy = 0
		if lvl < LevelPassthrough {
			c.level.Store(int32(lvl + 1))
			c.degradations.Add(1)
		}
		return
	}
	h.healthy++
	// A quarantine latch suspends the probing re-arm: the online
	// learner pinned the ladder at passthrough because the *model* is
	// untrustworthy, and at passthrough every window looks healthy by
	// construction — only a healthy replacement model (Rearm) may lift
	// it.
	if lvl > LevelGuided && h.healthy >= h.rearmWindows && !c.quarantined.Load() {
		c.level.Store(int32(lvl - 1))
		c.rearms.Add(1)
		h.healthy = 0
	}
}

// Quarantine forces the ladder to LevelPassthrough and latches it
// there: the health monitor's probing re-arm is suspended until Rearm
// lifts the latch. The online learner quarantines the gate when its
// drift or staleness guards fire — unlike an ordinary trip, which
// re-probes on its own, a quarantine says "the model itself is bad; do
// not resume guidance until a better one is installed". Idempotent and
// safe from any goroutine.
func (c *Controller) Quarantine() {
	first := !c.quarantined.Swap(true)
	if lvl := c.Level(); lvl < LevelPassthrough {
		c.level.Store(int32(LevelPassthrough))
		c.degradations.Add(1)
	} else if !first {
		return
	}
	if h := c.health; h != nil {
		h.mu.Lock()
		h.healthy = 0
		h.mu.Unlock()
	}
}

// Rearm lifts a quarantine latch and steps the ladder straight back to
// LevelGuided. The online learner calls it after installing a snapshot
// its guards scored healthy; if the new model is in fact still bad,
// the ordinary health monitor trips again within a window. A no-op
// when not quarantined (the probing re-arm machinery owns ordinary
// trips).
func (c *Controller) Rearm() {
	if !c.quarantined.Swap(false) {
		return
	}
	if lvl := c.Level(); lvl > LevelGuided {
		c.level.Store(int32(LevelGuided))
		c.rearms.Add(1)
	}
	if h := c.health; h != nil {
		h.mu.Lock()
		h.healthy = 0
		h.mu.Unlock()
	}
}

// resetHealth clears the window and ladder between runs.
func (c *Controller) resetHealth() {
	c.level.Store(int32(LevelGuided))
	h := c.health
	if h == nil {
		return
	}
	h.mu.Lock()
	h.unknowns.Store(0)
	h.escapes.Store(0)
	h.healthy = 0
	h.mu.Unlock()
}
