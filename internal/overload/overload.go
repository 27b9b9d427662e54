// Package overload implements adaptive admission control in front of
// the STM runtimes: an AIMD concurrency limiter, a contention-collapse
// detector, and deadline-aware load shedding with priority classes.
//
// The guidance gate (internal/guide) reduces variance by *delaying*
// predicted casualties, but nothing there bounds how many transactions
// contend in the first place. Under oversubscription (threads ≫ cores,
// hot write sets) both runtimes exhibit contention collapse: throughput
// falls as offered load rises, because every additional in-flight
// transaction mostly adds aborts. The limiter sits before the runtime
// touches any transactional state and caps in-flight transactions with
// a token gate whose limit adapts AIMD-style:
//
//   - additive increase: each sampling window that closed with commits
//     and no collapse signal raises the limit by one, probing for
//     headroom;
//   - multiplicative decrease: any collapse signal halves the limit
//     (floored at MinInflight).
//
// Collapse signals, evaluated once per sliding window:
//
//	abort ratio ≥ AbortTrip        (churn: most attempts lose)
//	watchdog pressure (NotePressure) (zero-commit window upstream)
//	throughput gradient collapse     (collapseDetector: load did not
//	                                  drop but throughput did)
//	p99 latency inflation            (LatencyRecorder tail blew past
//	                                  its slow-follow baseline)
//
// Calls that cannot be admitted immediately either wait (bounded by
// their context) or are shed with ErrShed — before any transaction
// descriptor is allocated. Shedding is deadline-aware (a call whose
// remaining deadline is under the predicted queue wait plus one
// execution estimate fails fast rather than timing out inside the
// queue) and priority-weighted (low-priority work sheds first as the
// wait backlog grows).
package overload

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/fault"
	"gstm/internal/progress"
)

// ErrShed is the sentinel for admission-control rejections. It is
// deliberately distinct from the runtimes' ErrDeadline: a shed call
// never entered the runtime, so no transactional work was attempted or
// rolled back. Errors returned by Acquire wrap ErrShed, so callers use
// errors.Is(err, overload.ErrShed).
var ErrShed = errors.New("overload: admission shed")

// The shed reasons are preallocated wrapped statics so the shed fast
// path — the whole point of which is to be cheaper than admission —
// allocates nothing.
var (
	errShedDeadline = fmt.Errorf("%w: remaining deadline below predicted queue wait", ErrShed)
	errShedBacklog  = fmt.Errorf("%w: wait backlog over priority budget", ErrShed)
	errShedStorm    = fmt.Errorf("%w: injected shed storm", ErrShed)
)

// Pri is an admission priority class, 0..3. Under backlog pressure
// lower classes shed first: class p tolerates a wait queue of
// (p+1)×limit before shedding, so PriLow gives up at 1× while
// PriCritical holds on to 4×.
type Pri uint8

// Priority classes, in shedding order (PriLow sheds first).
const (
	PriLow Pri = iota
	PriNormal
	PriHigh
	PriCritical
	// NumPri is the number of priority classes.
	NumPri = 4
)

// String renders the class for reports and CLI output.
func (p Pri) String() string {
	switch p {
	case PriLow:
		return "low"
	case PriNormal:
		return "normal"
	case PriHigh:
		return "high"
	case PriCritical:
		return "critical"
	}
	return "unknown"
}

// clampPri folds out-of-range values into the top class rather than
// panicking: an unknown-but-high byte is someone's "most important".
func clampPri(p Pri) Pri {
	if p >= NumPri {
		return PriCritical
	}
	return p
}

// Mode selects the limit policy.
type Mode int

// Limit policies.
const (
	// ModeAIMD adapts the in-flight limit from collapse signals.
	ModeAIMD Mode = iota
	// ModeFixed pins the limit at MaxInflight (shedding still applies).
	ModeFixed
)

// String renders the mode for reports.
func (m Mode) String() string {
	switch m {
	case ModeAIMD:
		return "aimd"
	case ModeFixed:
		return "fixed"
	}
	return "unknown"
}

// ParseMode parses a CLI mode name.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "aimd":
		return ModeAIMD, nil
	case "fixed":
		return ModeFixed, nil
	}
	return 0, fmt.Errorf("overload: unknown limiter mode %q (want aimd or fixed)", s)
}

// Defaults (see Options).
const (
	// DefaultWindow is the AIMD sampling window. Long enough to hold
	// many transactions (microseconds each), short enough to back off
	// within a few milliseconds of a collapse.
	DefaultWindow = 2 * time.Millisecond
	// DefaultMinInflight is the limit floor — admission never strangles
	// the system below two concurrent transactions.
	DefaultMinInflight = 2
	// DefaultAbortTrip is the per-window abort ratio treated as
	// collapse.
	DefaultAbortTrip = 0.85
	// DefaultCollapseFactor: a window whose throughput fell below
	// factor× the previous window's, without the in-flight level
	// dropping, is a gradient collapse.
	DefaultCollapseFactor = 0.5
	// DefaultLatencyTrip is the p99 inflation multiplier over the
	// slow-follow baseline treated as collapse.
	DefaultLatencyTrip = 4.0
	// ewmaShift is the execution-estimate EWMA decay (new weight 1/8).
	ewmaShift = 3
)

// Options configures a Limiter.
type Options struct {
	// MaxInflight is the in-flight cap (and the AIMD starting limit).
	// ≤ 0 means 4×GOMAXPROCS.
	MaxInflight int
	// MinInflight is the AIMD floor. ≤ 0 means DefaultMinInflight.
	MinInflight int
	// Mode selects ModeAIMD (default) or ModeFixed.
	Mode Mode
	// Window is the AIMD sampling window. ≤ 0 means DefaultWindow.
	Window time.Duration
	// AbortTrip is the per-window abort ratio (0..1] treated as a
	// collapse signal. ≤ 0 means DefaultAbortTrip.
	AbortTrip float64
	// CollapseFactor is the gradient-collapse throughput factor
	// (0..1). ≤ 0 means DefaultCollapseFactor.
	CollapseFactor float64
	// LatencyTrip is the p99 inflation multiplier over the slow-follow
	// baseline treated as a collapse signal. ≤ 0 means
	// DefaultLatencyTrip.
	LatencyTrip float64
	// Latency, when non-nil, feeds the p99-inflation collapse signal
	// from the runtime's attached recorder. Optional: the abort and
	// gradient signals work without it.
	Latency *progress.LatencyRecorder
	// Inject, when non-nil, arms the load-spike / limiter-stall /
	// shed-storm fault classes inside the admission path.
	Inject *fault.Injector
	// Yield, when non-nil, replaces runtime.Gosched in the wait loop so
	// a deterministic scheduler (internal/sched) can interleave waiting
	// admissions with the transactions they wait on. Same contract as
	// tl2.Options.Yield.
	Yield func()
	// Now, when non-nil, replaces time.Now — the tick simulators and
	// the deterministic tests drive window closes through it.
	Now func() time.Time
}

// collapseDetector tracks the throughput-vs-inflight gradient over
// consecutive windows: on the healthy side of the curve more in-flight
// work means more throughput, so a window where the in-flight level
// did not drop but throughput did — by more than CollapseFactor — is
// the signature of contention collapse (every marginal transaction
// mostly buys aborts). One instance per Limiter, touched only under
// the window lock.
type collapseDetector struct {
	prevThr      float64
	prevInflight float64
	armed        bool
}

// observe folds one closed window and reports whether it shows a
// gradient collapse.
func (d *collapseDetector) observe(thr, inflight, factor float64) bool {
	collapsed := d.armed &&
		d.prevThr > 0 &&
		inflight >= d.prevInflight &&
		thr < d.prevThr*factor
	d.prevThr, d.prevInflight, d.armed = thr, inflight, true
	return collapsed
}

// reset disarms the detector (between runs).
func (d *collapseDetector) reset() {
	*d = collapseDetector{}
}

// Limiter is the adaptive admission controller. All methods are
// nil-safe no-ops so an unconfigured runtime pays one nil check.
type Limiter struct {
	max, min       int64
	mode           Mode
	window         time.Duration
	abortTrip      float64
	collapseFactor float64
	latencyTrip    float64
	lat            *progress.LatencyRecorder
	inj            *fault.Injector
	yield          func()
	now            func() time.Time

	limit    atomic.Int64 // current in-flight cap
	inflight atomic.Int64 // admitted, not yet released
	waiting  atomic.Int64 // parked in the wait loop

	execEWMA atomic.Int64 // execution-time estimate, nanos
	commits  atomic.Uint64
	aborts   atomic.Uint64
	pressure atomic.Bool // watchdog pressure latched since last window

	acquires     atomic.Uint64
	waits        atomic.Uint64
	sheds        atomic.Uint64
	shedDeadline atomic.Uint64
	shedBacklog  atomic.Uint64
	shedStorm    atomic.Uint64
	growths      atomic.Uint64
	backoffs     atomic.Uint64
	collapses    atomic.Uint64

	// Window sampling is lazy and driven from Release, the same shape
	// as the progress watchdog: no background goroutine, and a system
	// busy enough to need backoff is by definition releasing often.
	nextSample atomic.Int64 // unix nanos of the next window close
	windowMu   sync.Mutex   // serializes window evaluation
	// Under windowMu:
	lastCommits uint64
	lastAborts  uint64
	p99Base     float64 // slow-follow p99 baseline, seconds
	detector    collapseDetector
}

// New builds a Limiter. A nil return never happens; to run without
// admission control simply don't attach one.
func New(opts Options) *Limiter {
	max := int64(opts.MaxInflight)
	if max <= 0 {
		max = int64(4 * runtime.GOMAXPROCS(0))
	}
	min := int64(opts.MinInflight)
	if min <= 0 {
		min = DefaultMinInflight
	}
	if min > max {
		min = max
	}
	w := opts.Window
	if w <= 0 {
		w = DefaultWindow
	}
	at := opts.AbortTrip
	if at <= 0 {
		at = DefaultAbortTrip
	}
	cf := opts.CollapseFactor
	if cf <= 0 {
		cf = DefaultCollapseFactor
	}
	lt := opts.LatencyTrip
	if lt <= 0 {
		lt = DefaultLatencyTrip
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	l := &Limiter{
		max:            max,
		min:            min,
		mode:           opts.Mode,
		window:         w,
		abortTrip:      at,
		collapseFactor: cf,
		latencyTrip:    lt,
		lat:            opts.Latency,
		inj:            opts.Inject,
		yield:          opts.Yield,
		now:            now,
	}
	l.limit.Store(max)
	return l
}

// Acquire admits one transaction or sheds it. On success the caller
// owes exactly one Release. The error, when non-nil, is either a
// wrapped ErrShed (the call never entered the runtime) or the
// context's own error (the deadline fired while waiting for a token —
// the caller maps that to its ErrDeadline path). The fast path — a cap
// with headroom, or a shed — performs no allocation and takes no lock.
func (l *Limiter) Acquire(ctx context.Context, pri Pri) error {
	if l == nil {
		return nil
	}
	l.acquires.Add(1)
	pri = clampPri(pri)
	if l.inj.Fire(fault.ShedStorm) {
		l.sheds.Add(1)
		l.shedStorm.Add(1)
		return errShedStorm
	}
	// A load-spike injection forces the saturated path: the call
	// behaves as if the cap were full, exercising prediction, backlog
	// weighting, and the wait loop under an otherwise idle limiter.
	spike := l.inj.Fire(fault.LoadSpike)
	if !spike && l.tryAcquire() {
		return nil
	}

	// Saturated. Shed before waiting if the caller cannot possibly
	// make it: remaining deadline under predicted queue wait plus one
	// execution estimate.
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline && l.shortDeadline(deadline) {
		l.sheds.Add(1)
		l.shedDeadline.Add(1)
		return errShedDeadline
	}

	// Priority-weighted backlog shedding: class p queues behind at
	// most (p+1)×limit waiters. When the backlog is past that, joining
	// it just converts this call's deadline budget into queue heat.
	w := l.waiting.Add(1)
	if lim := l.limit.Load(); w > (int64(pri)+1)*lim {
		l.waiting.Add(-1)
		l.sheds.Add(1)
		l.shedBacklog.Add(1)
		return errShedBacklog
	}
	l.waits.Add(1)
	defer l.waiting.Add(-1)

	for i := 0; ; i++ {
		if l.tryAcquire() {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if l.yield != nil {
			l.yield()
		} else {
			runtime.Gosched()
		}
		l.inj.Sleep(fault.LimiterStall)
		// Re-check the deadline forecast as the queue evolves; the
		// estimate can only have grown if we are still here.
		if hasDeadline && i&0x7 == 0x7 && l.shortDeadline(deadline) {
			l.sheds.Add(1)
			l.shedDeadline.Add(1)
			return errShedDeadline
		}
	}
}

// tryAcquire takes one token if the cap has headroom.
func (l *Limiter) tryAcquire() bool {
	for {
		in := l.inflight.Load()
		if in >= l.limit.Load() {
			return false
		}
		if l.inflight.CompareAndSwap(in, in+1) {
			return true
		}
	}
}

// shortDeadline reports whether the remaining deadline is under the
// predicted queue wait plus one execution estimate.
func (l *Limiter) shortDeadline(deadline time.Time) bool {
	wait := l.PredictWait()
	if wait <= 0 {
		return false // no estimate yet: admit optimistically
	}
	return l.now().Add(wait).After(deadline)
}

// PredictWait estimates how long a new arrival will wait for a token
// plus run: waiting×p50/limit (the queue drains limit-wide) plus one
// p50 execution. Zero until the first Release seeds the estimate.
func (l *Limiter) PredictWait() time.Duration {
	if l == nil {
		return 0
	}
	p50 := l.execEWMA.Load()
	if p50 <= 0 {
		return 0
	}
	lim := l.limit.Load()
	if lim < 1 {
		lim = 1
	}
	w := l.waiting.Load()
	if w < 0 {
		w = 0
	}
	return time.Duration(p50 + w*p50/lim)
}

// Release returns the token taken by a successful Acquire and folds
// the call's execution time into the p50 estimate. committed reports
// whether the call ultimately committed (the abort signal rides
// NoteAbort per attempt, not here). Release also drives the lazy
// window sampler.
func (l *Limiter) Release(start time.Time, committed bool) {
	if l == nil {
		return
	}
	l.inflight.Add(-1)
	now := l.now()
	if d := now.Sub(start).Nanoseconds(); d > 0 {
		e := l.execEWMA.Load()
		if e == 0 {
			l.execEWMA.CompareAndSwap(0, d)
		} else {
			// A benign race: concurrent folds may drop one sample, and
			// the estimate stays an estimate.
			l.execEWMA.Store(e + (d-e)>>ewmaShift)
		}
	}
	if committed {
		l.commits.Add(1)
	}
	l.maybeSample(now)
}

// NoteAbort records one aborted attempt (the runtimes call it at their
// abort-count site, so retries count individually). Nil-safe.
func (l *Limiter) NoteAbort() {
	if l == nil {
		return
	}
	l.aborts.Add(1)
}

// NotePressure latches upstream progress pressure (a watchdog trip)
// as a collapse signal for the next window. Nil-safe.
func (l *Limiter) NotePressure() {
	if l == nil {
		return
	}
	l.pressure.Store(true)
}

// maybeSample closes the sampling window if it has elapsed. Lazy and
// contention-free: one atomic time check on the hot path, TryLock so
// at most one releaser pays for evaluation and nobody ever queues.
func (l *Limiter) maybeSample(now time.Time) {
	if l.mode != ModeAIMD {
		return
	}
	ns := l.nextSample.Load()
	if now.UnixNano() < ns {
		return
	}
	if !l.windowMu.TryLock() {
		return
	}
	defer l.windowMu.Unlock()
	if l.nextSample.Load() != ns {
		return // someone else closed this window first
	}
	l.nextSample.Store(now.UnixNano() + l.window.Nanoseconds())
	if ns == 0 {
		// First call only anchors the window.
		l.lastCommits, l.lastAborts = l.commits.Load(), l.aborts.Load()
		return
	}
	l.sampleLocked()
}

// sampleLocked evaluates one closed window and moves the limit. Caller
// holds windowMu.
func (l *Limiter) sampleLocked() {
	commits, aborts := l.commits.Load(), l.aborts.Load()
	dc := commits - l.lastCommits
	da := aborts - l.lastAborts
	l.lastCommits, l.lastAborts = commits, aborts

	collapse := false
	if total := dc + da; total > 0 && float64(da)/float64(total) >= l.abortTrip {
		collapse = true
	}
	if l.pressure.Swap(false) {
		collapse = true
	}
	// Gradient: windows are equal-length, so per-window commits are the
	// throughput; in-flight is read at the close (an instantaneous
	// proxy, but consistently so).
	thr := float64(dc)
	if l.detector.observe(thr, float64(l.inflight.Load()), l.collapseFactor) {
		l.collapses.Add(1)
		collapse = true
	}
	if l.lat != nil {
		if p99 := l.lat.P99(); p99 > 0 {
			if l.p99Base == 0 {
				l.p99Base = p99
			} else {
				if p99 > l.p99Base*l.latencyTrip {
					collapse = true
				}
				// Slow-follow: the baseline absorbs drift over many
				// windows but not a sudden inflation.
				l.p99Base += (p99 - l.p99Base) / 16
			}
		}
	}

	lim := l.limit.Load()
	switch {
	case collapse:
		if nl := lim / 2; nl >= l.min {
			l.limit.Store(nl)
			l.backoffs.Add(1)
		} else if lim != l.min {
			l.limit.Store(l.min)
			l.backoffs.Add(1)
		}
	case dc > 0 && lim < l.max:
		// Additive probe for headroom, only on evidence of progress —
		// an idle limiter stays put.
		l.limit.Store(lim + 1)
		l.growths.Add(1)
	}
}

// Stats is a snapshot of the limiter's counters.
type Stats struct {
	// Limit is the current in-flight cap; Inflight and Waiting the
	// instantaneous occupancy and queue depth.
	Limit, Inflight, Waiting int64
	// Acquires counts Acquire calls (sheds included); Waits the subset
	// that parked in the wait loop before admission or error.
	Acquires, Waits uint64
	// Sheds counts ErrShed returns, split by reason below.
	Sheds uint64
	// ShedDeadline, ShedBacklog, ShedStorm partition Sheds.
	ShedDeadline, ShedBacklog, ShedStorm uint64
	// Growths and Backoffs count AIMD limit moves; Collapses the
	// gradient-detector trips (a subset of windows behind Backoffs).
	Growths, Backoffs, Collapses uint64
	// ExecEstimate is the current p50 execution estimate.
	ExecEstimate time.Duration
}

// String renders the snapshot compactly for run summaries.
func (s Stats) String() string {
	return fmt.Sprintf("overload: limit %d, %d sheds (%d deadline, %d backlog, %d storm), %d waits, %d growths, %d backoffs, %d gradient collapses",
		s.Limit, s.Sheds, s.ShedDeadline, s.ShedBacklog, s.ShedStorm,
		s.Waits, s.Growths, s.Backoffs, s.Collapses)
}

// Stats returns a snapshot of the counters. Nil-safe (zero value).
func (l *Limiter) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	return Stats{
		Limit:        l.limit.Load(),
		Inflight:     l.inflight.Load(),
		Waiting:      l.waiting.Load(),
		Acquires:     l.acquires.Load(),
		Waits:        l.waits.Load(),
		Sheds:        l.sheds.Load(),
		ShedDeadline: l.shedDeadline.Load(),
		ShedBacklog:  l.shedBacklog.Load(),
		ShedStorm:    l.shedStorm.Load(),
		Growths:      l.growths.Load(),
		Backoffs:     l.backoffs.Load(),
		Collapses:    l.collapses.Load(),
		ExecEstimate: time.Duration(l.execEWMA.Load()),
	}
}

// Now returns the limiter's current time through its configured clock,
// so callers stamp Release starts on the same timeline the window
// sampler runs on (the tick simulators replace the clock). Nil-safe.
func (l *Limiter) Now() time.Time {
	if l == nil {
		return time.Time{}
	}
	return l.now()
}

// Limit returns the current in-flight cap. Nil-safe (0).
func (l *Limiter) Limit() int64 {
	if l == nil {
		return 0
	}
	return l.limit.Load()
}

// Reset restores the configured starting limit and clears the adaptive
// state and counters (between runs). In-flight tokens are left alone —
// callers still holding one will Release into the fresh state. Nil-safe.
func (l *Limiter) Reset() {
	if l == nil {
		return
	}
	l.windowMu.Lock()
	l.limit.Store(l.max)
	l.execEWMA.Store(0)
	l.commits.Store(0)
	l.aborts.Store(0)
	l.pressure.Store(false)
	l.acquires.Store(0)
	l.waits.Store(0)
	l.sheds.Store(0)
	l.shedDeadline.Store(0)
	l.shedBacklog.Store(0)
	l.shedStorm.Store(0)
	l.growths.Store(0)
	l.backoffs.Store(0)
	l.collapses.Store(0)
	l.nextSample.Store(0)
	l.lastCommits, l.lastAborts = 0, 0
	l.p99Base = 0
	l.detector.reset()
	l.windowMu.Unlock()
}
