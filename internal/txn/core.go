package txn

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/progress"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// Core is the run-wide state the driver keeps for one STM domain: the
// counters, the hook boxes, the escalation threshold and the
// irrevocable token. Both runtimes' STM structs embed it, so its
// methods are their public bookkeeping surface. Initialize with Init;
// do not copy.
//
// Layout rule: no word written per transaction shares a cache line with
// a word read per transaction. The first block is read on every attempt
// and written almost never; the instance counter, written by every
// thread, sits alone on padded lines; the commit/abort counters are
// striped per thread, 128 bytes apart. TestCoreLayout pins the rule.
type Core struct {
	cfg Config

	// hooks is the installed tracer/gate/monitor/recorder set, replaced
	// whole by the setters so the hot path pays one load per use.
	hooks  atomic.Pointer[hooks]
	hookMu sync.Mutex

	// escThreshold is the effective escalation threshold: the
	// configured one, halved by the watchdog while commits stall.
	escThreshold atomic.Int64
	watchdog     *progress.Watchdog

	// Irrev is the irrevocable token. Runtimes quiesce against it
	// before taking their first write lock.
	Irrev Token

	// Written only on a deadline miss or a shed.
	deadlineMiss atomic.Uint64
	sheds        atomic.Uint64

	_ [128]byte
	// instances numbers attempts in birth order across all threads (TL2's
	// Greedy manager reads it so, and the gate finds the newest commit by
	// comparing them), so it stays one counter.
	instances atomic.Uint64
	_         [120]byte
	stripes   [coreStripes]coreStripe
	_         [24]byte // with the last stripe's tail, 128 bytes to the embedder's next field
}

// coreStripes is the number of per-thread counter stripes; a power of
// two, so picking one is a mask.
const coreStripes = 16

// coreStripe is one thread's share of the per-transaction counters,
// padded to 128 bytes so no two stripes share a line or an adjacent-line
// prefetch pair. Thread IDs past the array alias modulo its length, so
// the adds stay atomic; the readers sum every stripe.
type coreStripe struct {
	commits, aborts, escalations atomic.Uint64
	_                            [128 - 3*8]byte
}

// stripe returns the counter stripe of the given thread.
func (c *Core) stripe(thread uint16) *coreStripe {
	return &c.stripes[thread%coreStripes]
}

// counts is the stripes' sum: one pass, no stop of the writers.
type counts struct{ commits, aborts, escalations uint64 }

func (c *Core) counts() counts {
	var n counts
	for i := range c.stripes {
		s := &c.stripes[i]
		n.commits += s.commits.Load()
		n.aborts += s.aborts.Load()
		n.escalations += s.escalations.Load()
	}
	return n
}

// hooks is one immutable snapshot of the installed hooks; gate, mon and
// lat are nil when off, tracer never is.
type hooks struct {
	tracer trace.Tracer
	gate   Gate
	mon    Monitor
	lat    *progress.LatencyRecorder
}

// YieldEveryFor is the Config.YieldEvery for a caller that knows its
// runtime serves threads workers: the emulation's interval when fewer Ps
// than threads run them — the cores whose interleaving it stands in for
// are missing — and otherwise 0, which leaves the choice to Init.
func YieldEveryFor(threads int) int {
	if threads > runtime.GOMAXPROCS(0) {
		return defaultYieldEvery
	}
	return 0
}

// Init configures the core and returns cfg with its defaults resolved.
func (c *Core) Init(cfg Config) Config {
	if cfg.YieldEvery == 0 {
		cfg.YieldEvery = -1
		if runtime.GOMAXPROCS(0) < 2 || cfg.Yield != nil {
			cfg.YieldEvery = defaultYieldEvery
		}
	}
	c.cfg = cfg
	c.Irrev.yield = cfg.Yield
	c.escThreshold.Store(cfg.threshold())
	if cfg.WatchdogWindow >= 0 {
		c.watchdog = progress.NewWatchdog(cfg.WatchdogWindow)
	}
	c.hooks.Store(&hooks{tracer: trace.Nop{}})
	return cfg
}

// setHooks installs an edited copy of the current hook set.
func (c *Core) setHooks(edit func(*hooks)) {
	c.hookMu.Lock()
	defer c.hookMu.Unlock()
	h := *c.hooks.Load()
	edit(&h)
	c.hooks.Store(&h)
}

// SetTracer installs the event sink for commit/abort events. Passing
// nil restores the no-op tracer. Safe to call between runs; calling it
// while transactions are in flight applies to subsequent events.
func (c *Core) SetTracer(t trace.Tracer) {
	if t == nil {
		t = trace.Nop{}
	}
	c.setHooks(func(h *hooks) { h.tracer = t })
}

// SetGate installs (or, with nil, removes) the guided-execution gate.
func (c *Core) SetGate(g Gate) { c.setHooks(func(h *hooks) { h.gate = g }) }

// SetMonitor installs (or, with nil, removes) the per-operation event
// monitor. Armed, it costs one interface call per transactional access,
// so it is strictly a correctness-testing hook, not a profiling one.
func (c *Core) SetMonitor(m Monitor) { c.setHooks(func(h *hooks) { h.mon = m }) }

// SetLatencyRecorder attaches (or with nil detaches) a per-(tx,thread)
// Atomic latency recorder. Recording adds a clock read plus a mutex
// acquisition per Atomic call, so it is off by default.
func (c *Core) SetLatencyRecorder(r *progress.LatencyRecorder) {
	c.setHooks(func(h *hooks) { h.lat = r })
}

// Monitor returns the armed monitor, or nil.
func (c *Core) Monitor() Monitor { return c.hooks.Load().mon }

// NextInstance numbers one transaction attempt.
func (c *Core) NextInstance() uint64 { return c.instances.Add(1) }

// NoteCommit counts and traces a commit made outside the driver
// (tl2.AtomicIrrevocable).
func (c *Core) NoteCommit(instance uint64, p tts.Pair) {
	c.stripe(p.Thread).commits.Add(1)
	c.hooks.Load().tracer.OnCommit(instance, p)
}

// Commits returns the number of committed transactions.
func (c *Core) Commits() uint64 { return c.counts().commits }

// Aborts returns the number of aborted transaction attempts.
func (c *Core) Aborts() uint64 { return c.counts().aborts }

// ResetCounters zeroes every per-run counter (between runs): commits,
// aborts and sheds. Progress counters (ProgressStats) describe the
// STM's lifetime and are kept.
func (c *Core) ResetCounters() {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.commits.Store(0)
		s.aborts.Store(0)
	}
	c.sheds.Store(0)
}

// ProgressStats snapshots the progress-guarantee counters.
func (c *Core) ProgressStats() progress.Stats {
	return progress.Stats{
		Escalations:       c.counts().escalations,
		DeadlineExceeded:  c.deadlineMiss.Load(),
		WatchdogTrips:     c.watchdog.Trips(),
		EscalateThreshold: c.escThreshold.Load(),
		Sheds:             c.sheds.Load(),
	}
}

// deadlineErr counts and builds the ErrDeadline-wrapping error.
func (c *Core) deadlineErr(ctx context.Context) error {
	c.deadlineMiss.Add(1)
	return fmt.Errorf("%w: %w", c.cfg.ErrDeadline, ctx.Err())
}

// shouldEscalate reports whether a retrying Atomic call has exhausted
// its escalation budget (abort count against the watchdog-adjusted
// threshold, or elapsed time against Config.EscalateTime).
func (c *Core) shouldEscalate(attempts int, t0 time.Time) bool {
	if th := c.escThreshold.Load(); th > 0 && int64(attempts) >= th {
		return true
	}
	et := c.cfg.EscalateTime
	return et > 0 && time.Since(t0) >= et
}

// progressCounts is the watchdog's reading: commits and aborts, summed
// over the stripes.
func (c *Core) progressCounts() (commits, aborts uint64) {
	n := c.counts()
	return n.commits, n.aborts
}

// observeWatchdog feeds the livelock watchdog from the abort path and
// applies its verdict: a zero-commit window halves the effective
// escalation threshold (floor 1) so starving transactions reach the
// serial path sooner; a healthy window restores the configured value.
func (c *Core) observeWatchdog() {
	if c.watchdog == nil {
		return
	}
	switch c.watchdog.Observe(time.Now(), c.progressCounts) {
	case progress.VerdictTrip:
		c.cfg.Overload.NotePressure()
		if th := c.escThreshold.Load(); th > 1 {
			c.escThreshold.CompareAndSwap(th, th/2)
		} else if th <= 0 {
			// Even with escalation disabled by configuration, a tripped
			// watchdog arms it: liveness over configuration.
			c.escThreshold.CompareAndSwap(th, DefaultEscalateAfter)
		}
	case progress.VerdictHealthy:
		if th, want := c.escThreshold.Load(), c.cfg.threshold(); th != want {
			c.escThreshold.CompareAndSwap(th, want)
		}
	}
}

// Token is the irrevocable token (Sreeram & Pande, IPDPS'12 — the
// paper's reference [23]): at most one transaction at a time runs the
// serial path, locking every location it touches at encounter time.
// active is the committers' fast-path flag, set only while the token is
// held, so the common case costs one load per commit.
//
// Deadlock freedom rests on one ordering rule, the same in both
// runtimes: a regular transaction blocks on the token (Quiesce) only
// while it holds zero write locks, and once it holds a lock it never
// blocks on the token — it aborts instead (Active). So the token
// holder's encounter-time spin-acquires only ever wait out a commit
// already past its first lock, which finishes in bounded time. TL2's
// first lock is the first write-set entry at commit; LibTM's is the
// first lockForWrite of the attempt, at Write time in encounter mode
// and at commit in commit mode.
type Token struct {
	mu     sync.Mutex
	active atomic.Bool
	yield  func() // Config.Yield
}

// Acquire takes the token and raises the active flag, spinning with
// cancellation checks (the holder is guaranteed to finish, so the spin
// is bounded by serial commit latency). Returns false if ctx expired
// first.
func (t *Token) Acquire(ctx context.Context) bool {
	done := ctx.Done()
	for !t.mu.TryLock() {
		if expired(done) {
			return false
		}
		if t.yield != nil {
			t.yield()
		} else {
			runtime.Gosched()
		}
	}
	t.active.Store(true)
	return true
}

// Release lowers the active flag and returns the token.
func (t *Token) Release() {
	t.active.Store(false)
	t.mu.Unlock()
}

// Active reports whether an irrevocable transaction is running. Lock
// holders consult it instead of waiting on a conflict.
func (t *Token) Active() bool { return t.active.Load() }

// Quiesce blocks until the active irrevocable transaction (if any)
// finishes. MUST only be called while holding zero write locks. Under
// a deterministic scheduler the wait spins on the flag through the
// yield hook instead of parking on the mutex.
func (t *Token) Quiesce() {
	if !t.active.Load() {
		return
	}
	if t.yield != nil {
		for t.active.Load() {
			t.yield()
		}
		return
	}
	t.mu.Lock()
	//nolint:staticcheck // gate-only acquisition: waiting is the point.
	t.mu.Unlock()
}

// expired reports whether a cancellation channel has fired (nil never
// does).
func expired(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Sleep sleeps for d, returning early if done fires. A nil done channel
// (no deadline) takes the timer-free path. Both runtimes' backoffs end
// here.
func Sleep(done <-chan struct{}, d time.Duration) {
	if done == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}
