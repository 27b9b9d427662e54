// Package guide implements the paper's guided execution (Section V): a
// runtime controller that tracks the current thread transactional state
// and withholds transactions whose (transaction, thread) pair does not
// appear in any high-probability destination state of the TSA — if, by
// the same TSA, waiting can lead to a state that admits it (holdGraph). A
// held transaction re-checks as the current state changes and, after k
// unsuccessful retries, is released anyway to guarantee progress
// (deadlock avoidance). Executions that reach states absent from the
// trained model pass through unguided so the system can fall back into
// known territory.
//
// The Controller plugs into an STM twice: as the Gate consulted at
// every transaction start, and as a Tracer fed commit/abort events so
// it can follow the state automaton. Use trace.Multi to feed events to
// both the controller and a measurement collector.
package guide

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/fault"
	"gstm/internal/model"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// DefaultK is the default number of re-checks against an *unchanged*
// current state before a held transaction is released (the paper's k:
// "if the current state does not change after k such retries, allowed
// to proceed"). Re-checks triggered by actual state changes do not
// count toward k.
const DefaultK = 8

// maxHoldFactor bounds total re-checks at maxHoldFactor×k, so a storm
// of state changes cannot hold a transaction indefinitely.
const maxHoldFactor = 64

// Options configures a Controller.
type Options struct {
	// Tfactor selects the high-probability destination sets
	// (P ≥ Pmax/Tfactor). ≤ 0 means model.DefaultTfactor.
	Tfactor float64
	// K is the number of re-checks before the deadlock-avoidance
	// escape admits a held transaction. ≤ 0 means DefaultK.
	K int
	// HealthWindow is the number of admits per health-monitor
	// evaluation window. 0 means DefaultHealthWindow; negative
	// disables the monitor entirely (the level stays LevelGuided).
	HealthWindow int
	// RelaxFactor multiplies the effective Tfactor at LevelRelaxed,
	// widening the admissible sets. ≤ 0 means DefaultRelaxFactor.
	RelaxFactor float64
	// RearmWindows is how many consecutive healthy windows step the
	// ladder back up one level. ≤ 0 means DefaultRearmWindows.
	RearmWindows int
	// Inject, when non-nil, arms the fault.HoldStall injection hook
	// inside the hold loop (deterministic thread-stall testing).
	Inject *fault.Injector
	// Yield, when non-nil, replaces runtime.Gosched in the hold loop so
	// a deterministic scheduler (internal/sched) can serialize held
	// admissions with the transactions they wait on. Same contract as
	// tl2.Options.Yield / libtm.Options.Yield.
	Yield func()
}

// Stats counts controller decisions, for reporting and tests. Every
// Admit call lands in exactly one disposition bucket and Admits is their
// sum: Admits == ImmediateAdmits + Holds in every snapshot, across
// SwapModel calls too, which touch no counters. The counters live in
// per-thread stripes that Stats sums without stopping the gate; a call in
// flight is counted when it ends. FutileAdmits is a subset of
// ImmediateAdmits and so outside the partition.
type Stats struct {
	// Admits is the total number of finished Admit calls.
	Admits uint64
	// ImmediateAdmits passed on the first check (including passthrough
	// admits).
	ImmediateAdmits uint64
	// FutileAdmits are the ImmediateAdmits the paper's rule alone would have
	// held but no state its thread's wait can bring about admits (holdGraph);
	// counted only while the gate tracks state, so never when Idle.
	FutileAdmits uint64
	// Holds waited at least one re-check before passing.
	Holds uint64
	// Escapes exhausted k re-checks and were released for progress.
	Escapes uint64
	// UnknownPasses were admitted because the current state was not in
	// the model (or had no outbound guidance).
	UnknownPasses uint64
	// IrrevocableAdmits passed through AdmitIrrevocable — escalated
	// transactions the gate must never hold.
	IrrevocableAdmits uint64
	// ReadOnlyAdmits is always 0: no admit bypasses the gate. It is
	// kept only because the benchmark harness (bench/) still adds it
	// into its check of the Admits partition, until a change to the
	// benchmark drops that reference.
	ReadOnlyAdmits uint64
	// Sheds counts transactions the overload limiter rejected before
	// they reached the gate (NoteShed). A shed call never called Admit,
	// so Sheds is counted entirely outside the Admits partition.
	Sheds uint64

	// RelaxedAdmits passed a first check against the relaxed
	// (RelaxFactor× Tfactor) destination sets at LevelRelaxed.
	RelaxedAdmits uint64
	// PassthroughAdmits bypassed gating entirely at LevelPassthrough.
	PassthroughAdmits uint64
	// Degradations counts downward ladder steps; Rearms upward ones.
	Degradations, Rearms uint64
	// Level is the ladder position at snapshot time.
	Level Level
	// MaxHoldRechecks is the largest number of re-checks any single
	// hold performed — the livelock-pressure high-water mark.
	MaxHoldRechecks uint64
	// ThreadEscapes[t] counts thread t's progress escapes and
	// ThreadHoldTime[t] its cumulative time spent held — the
	// starvation evidence per thread. Both are as long as the model's
	// thread count; a thread ID at or past that aliases onto slot ID mod
	// length (as does every per-thread sum behind the totals above,
	// harmlessly).
	ThreadEscapes []uint64
	// ThreadHoldTime is indexed like ThreadEscapes.
	ThreadHoldTime []time.Duration

	// ModelSwaps is the number of SwapModel installations.
	ModelSwaps uint64
	// Quarantined reports whether the ladder is latched at passthrough
	// by Quarantine (online drift guard) awaiting Rearm.
	Quarantined bool
	// Idle reports that the active model's compiled tables hold nobody
	// (futile verdicts admit), so the gate tracks no state.
	Idle bool
}

// snapshot is the controller's view of the current state, immutable once
// published, so Admit reads it without locking. Snapshots for plain
// (abort-free) commit states are cached per pair (see commitCache) and
// reused, so the commit path allocates nothing at steady state.
type snapshot struct {
	state tts.State
	// verdicts is the state's verdict class; nil: no guidance.
	*verdicts
	// anchor is an abort-extension's killer instance; 0 if commit-only.
	anchor uint64
}

// verdicts is a state's pair of verdict tables: hold at Tfactor, relaxed at
// RelaxFactor× Tfactor, consulted at LevelRelaxed. Immutable, and shared by
// every state whose tables are equal (see compile), so a pointer is a
// verdict class: the same pointer, the same verdict for every pair at
// every level.
type verdicts struct {
	hold, relaxed holdSet
}

// commitCache is the lock-free front of the commit path: the snapshot of
// every commit-only state seen so far, by pair key. Immutable once
// published; a miss republishes a grown copy under Controller.mu.
type commitCache struct {
	snaps map[uint32]*snapshot
}

// modelTables is everything the controller derives from its active
// base model. It is immutable once published and replaced wholesale by
// SwapModel through an atomic pointer, so admission-set resolution
// never waits on a lock a swapper could be holding — the online
// learner can rebuild and install models forever without ever adding a
// mutex to the commit path.
type modelTables struct {
	// verdicts are the compiled per-state verdict tables, interned by
	// content.
	verdicts map[string]*verdicts
	// idle: a model was compiled and no verdict is vHold: whatever the
	// state, everyone is admitted, and nobody reads or writes cur or mu.
	idle bool
	// base is the model the tables were compiled from: the one New
	// received or the latest SwapModel installation.
	base *model.TSA
	// commits caches the snapshots built from these tables (never nil);
	// hanging it here is what lets SwapModel drop it by replacing the
	// tables.
	commits atomic.Pointer[commitCache]
}

// Controller guides an STM using a trained, analyzed model. An immediate
// admit and a cached-state commit take no lock and touch one cache line
// another thread writes: cur, the shared variable the mechanism is made
// of, which a commit stores only when it changes the verdict class — and
// not even that when the tables are idle. Everything else they touch is
// read-mostly or the calling thread's own stripe.
type Controller struct {
	// Read-mostly: set by New or moved by rare control-plane events. No
	// field in this block may be written per transaction.
	tables atomic.Pointer[modelTables]
	k      int
	inject *fault.Injector
	yield  func()
	tf, rf float64
	// level is the degradation-ladder position (see health.go); the
	// health monitor moves it, Admit polls it. quarantined latches the
	// ladder at passthrough until an external supervisor (the online
	// learner) re-arms it.
	level       atomic.Int32
	quarantined atomic.Bool
	health      *healthMonitor
	// perThread holds every per-transaction counter, one stripe per
	// thread (see stripe).
	perThread []stripe

	// cur is the current state, alone on its cache line: every Admit
	// loads it and every commit that changes the verdict class stores it.
	_   [64]byte
	cur atomic.Pointer[snapshot]
	_   [64 - 8]byte

	// Slow path: commit-cache misses, abort extension and model swaps
	// serialize on mu.
	mu sync.Mutex

	degradations    atomic.Uint64
	rearms          atomic.Uint64
	swaps           atomic.Uint64
	maxHoldRechecks atomic.Uint64
}

var _ trace.Tracer = (*Controller)(nil)

// New builds a Controller from a model, compiling its hold rule
// (holdTables). The model should have passed analyze.Analyze first;
// New does not re-check. With a nil model the controller starts with no
// guidance — every state is unknown, everything passes — which is the
// cold-start posture of an online learner that will SwapModel in its
// first snapshot once it has seen enough of the stream.
func New(m *model.TSA, opts Options) *Controller {
	tf := opts.Tfactor
	if tf <= 0 {
		tf = model.DefaultTfactor
	}
	k := opts.K
	if k <= 0 {
		k = DefaultK
	}
	rf := opts.RelaxFactor
	if rf <= 0 {
		rf = DefaultRelaxFactor
	}
	threads := 1
	if m != nil {
		threads = max(threads, m.Threads)
	}
	threads = min(threads, maxThreadCounters)
	c := &Controller{
		k:         k,
		inject:    opts.Inject,
		yield:     opts.Yield,
		perThread: make([]stripe, threads),
		tf:        tf,
		rf:        rf,
	}
	c.tables.Store(c.compile(m))
	if opts.HealthWindow >= 0 {
		w := opts.HealthWindow
		if w == 0 {
			w = DefaultHealthWindow
		}
		rw := opts.RearmWindows
		if rw <= 0 {
			rw = DefaultRearmWindows
		}
		c.health = &healthMonitor{
			window:       uint64(w),
			batch:        healthBatch(uint64(w)),
			rearmWindows: rw,
		}
	}
	return c
}

// compile derives the tables of base model m (nil: no guidance yet),
// interning each state's verdict pair by content.
func (c *Controller) compile(m *model.TSA) *modelTables {
	tb := &modelTables{base: m}
	if m != nil {
		var hold map[string]holdSet
		hold, tb.idle = holdTables(m, c.tf)
		relaxed := relaxTables(m, hold, c.tf*c.rf)
		tb.verdicts = make(map[string]*verdicts, len(hold))
		interned := make(map[string]*verdicts)
		for k, set := range hold {
			ck := classKey(set, relaxed[k])
			if interned[ck] == nil {
				interned[ck] = &verdicts{set, relaxed[k]}
			}
			tb.verdicts[k] = interned[ck]
		}
	}
	tb.commits.Store(&commitCache{})
	return tb
}

// classKey renders a state's verdict tables by content (fmt prints a map
// sorted by key). A variable so the mutation test can drop the relaxed half.
var classKey = func(hold, relaxed holdSet) string { return fmt.Sprint(hold, relaxed) }

// Stats returns a snapshot of the decision counters, summed over the
// per-thread stripes.
func (c *Controller) Stats() Stats {
	st := Stats{
		Degradations:    c.degradations.Load(),
		Rearms:          c.rearms.Load(),
		Level:           c.Level(),
		MaxHoldRechecks: c.maxHoldRechecks.Load(),
		ThreadEscapes:   make([]uint64, len(c.perThread)),
		ThreadHoldTime:  make([]time.Duration, len(c.perThread)),
		ModelSwaps:      c.swaps.Load(),
		Quarantined:     c.quarantined.Load(),
		Idle:            c.tables.Load().idle,
	}
	for i := range c.perThread {
		t := &c.perThread[i]
		st.ImmediateAdmits += t.immediate.Load()
		st.FutileAdmits += t.futile.Load()
		st.Holds += t.holds.Load()
		st.UnknownPasses += t.unknown.Load()
		st.IrrevocableAdmits += t.irrevocable.Load()
		st.Sheds += t.sheds.Load()
		st.RelaxedAdmits += t.relaxed.Load()
		st.PassthroughAdmits += t.passthrough.Load()
		st.ThreadEscapes[i] = t.escapes.Load()
		st.Escapes += st.ThreadEscapes[i]
		st.ThreadHoldTime[i] = time.Duration(t.holdNanos.Load())
	}
	st.Admits = st.ImmediateAdmits + st.Holds
	return st
}

// Summary renders the admission ledger on one line, for exit reports.
func (s Stats) Summary() string {
	return fmt.Sprintf("gate: %d admits, %d holds, %d escapes, %d futile admits, %d unknown-state passes, %d irrevocable admits, idle tables: %v",
		s.Admits, s.Holds, s.Escapes, s.FutileAdmits, s.UnknownPasses, s.IrrevocableAdmits, s.Idle)
}

// SwapModel atomically replaces the controller's base model with next
// (non-nil), e.g. a fresh epoch snapshot from the online learner. The
// hold rule is compiled here, off the commit path, and
// installed with a single atomic pointer store — Admit, OnCommit, and
// OnAbort never block on a swap in progress, and a swapper stalled
// before calling SwapModel holds nothing the commit path waits on.
func (c *Controller) SwapModel(next *model.TSA) {
	if next == nil {
		return
	}
	nt := c.compile(next)
	c.swaps.Add(1)
	old := c.tables.Swap(nt)
	// Refresh the current snapshot against the new model so transactions
	// held right now re-check fresh guidance: bounded work under mu, after
	// the lock-free install above; the CAS yields to any commit that moved
	// the state on meanwhile. cur's state is exact only up to the old class,
	// so the newest commit is the base unless cur is its extension. With
	// idle tables on either side cur is stale or unused, and idle commits
	// record nothing: start over.
	c.mu.Lock()
	if old.idle || nt.idle {
		c.restartLocked()
	} else if snap := c.cur.Load(); snap != nil {
		st, anchor := snap.state, snap.anchor
		if kp, k, ok := c.committer(0); ok && uint32(anchor) != k {
			st, anchor = tts.State{Commit: kp}, 0
		}
		c.cur.CompareAndSwap(snap, c.newSnapshot(nt, st, anchor))
	}
	c.mu.Unlock()
	// A fresh model must not inherit the health debt its predecessor
	// ran up: the window's unknown/escape evidence indicts tables that
	// no longer exist (a cold gate trips on 100% unknown passes before
	// anything installs at all). Clear the window and step a
	// non-quarantined ladder back to guided; the quarantine latch
	// belongs to whoever set it (the learner) and is left alone.
	if !c.quarantined.Load() {
		if lvl := c.Level(); lvl > LevelGuided {
			c.level.Store(int32(LevelGuided))
			c.rearms.Add(1)
		}
	}
	if h := c.health; h != nil {
		h.mu.Lock()
		h.unknowns.Store(0)
		h.escapes.Store(0)
		h.healthy = 0
		h.mu.Unlock()
	}
}

// Model returns the active base model — the one New received or the
// latest SwapModel installation.
func (c *Controller) Model() *model.TSA {
	return c.tables.Load().base
}

// Reset clears the dynamic state — the current snapshot, the health
// window, the degradation ladder, and any quarantine latch — between
// runs; the trained model, options, and cumulative counters are kept.
// A swapped-in model is learned state, not run state, so it survives
// Reset. A learner that still distrusts its model simply quarantines
// again after the next epoch.
func (c *Controller) Reset() {
	c.mu.Lock()
	c.restartLocked()
	c.mu.Unlock()
	c.quarantined.Store(false)
	c.resetHealth()
}

// restartLocked forgets the current state and the threads' latest commits,
// whose instances belong to the history being left (the next run's STM
// numbers its commits from 1 again). Caller holds c.mu.
func (c *Controller) restartLocked() {
	c.cur.Store(nil)
	for i := range c.perThread {
		c.perThread[i].commit.Store(0)
	}
}

// maxSnapCache bounds the commit-snapshot cache; a workload cannot
// have more commit-only states than (tx IDs × threads), so in practice
// the bound is never hit, but a pathological ID churn clears rather
// than grows without limit.
const maxSnapCache = 4096

// newSnapshot materializes state st under tables tb, anchored by killer
// instance anchor.
func (c *Controller) newSnapshot(tb *modelTables, st tts.State, anchor uint64) *snapshot {
	return &snapshot{state: st, verdicts: tb.verdicts[st.Key()], anchor: anchor}
}

// snapshotForCommitLocked returns the snapshot for the commit-only state
// anchored by pair p, publishing it into tb's commit cache when it had
// to be built. Caller holds c.mu.
func (c *Controller) snapshotForCommitLocked(tb *modelTables, p tts.Pair) *snapshot {
	old := tb.commits.Load()
	if s := old.snaps[p.Key()]; s != nil {
		return s
	}
	s := c.newSnapshot(tb, tts.State{Commit: p}, 0)
	next := &commitCache{snaps: map[uint32]*snapshot{p.Key(): s}}
	if len(old.snaps) < maxSnapCache {
		for k, v := range old.snaps {
			next.snaps[k] = v
		}
	}
	tb.commits.Store(next)
	return s
}

// OnCommit implements trace.Tracer: a commit moves the automaton to a
// fresh state anchored by this commit (aborts it causes will accrete
// via OnAbort).
func (c *Controller) OnCommit(instance uint64, p tts.Pair) {
	tb := c.tables.Load()
	if tb.idle {
		return
	}
	c.advance(tb, instance, p)
	if now := c.tables.Load(); now != tb && !now.idle {
		// A swap raced the advance and may have refreshed cur before our
		// snapshot of the old tables landed on it: redo against the new
		// ones (once; a second swap is healed by the next commit).
		c.advance(now, instance, p)
	}
}

// advance publishes the state anchored by commit (instance, p) under
// tables tb. The common case — pair seen before — is a lock-free lookup,
// a store to the committer's own stripe and, only when the verdict class
// changes, one store to a shared line.
func (c *Controller) advance(tb *modelTables, instance uint64, p tts.Pair) {
	if next := tb.commits.Load().snaps[p.Key()]; next != nil {
		c.install(next, instance, p)
		return
	}
	// First encounter of the pair: build and publish its snapshot under mu.
	c.mu.Lock()
	c.install(c.snapshotForCommitLocked(tb, p), instance, p)
	c.mu.Unlock()
}

// install records commit (instance, p) in its thread's stripe and makes
// next current unless cur has next's class. Held transactions detect change
// by cur's identity, so a same-class commit reads as "unchanged" and burns
// stale budget — which is accurate: the admissible set did not change.
func (c *Controller) install(next *snapshot, instance uint64, p tts.Pair) {
	c.stripe(p.Thread).commit.Store(uint64(p.Key())<<32 | instance&math.MaxUint32)
	if cur := c.cur.Load(); cur == nil || cur.verdicts != next.verdicts {
		c.cur.Store(next)
	}
}

// committer reads the threads' latest commits off their stripes: the one
// of instance killer — current iff some stripe names it — or, for killer
// 0, the newest (instances compared modulo 2^32).
func (c *Controller) committer(killer uint64) (p tts.Pair, inst uint32, ok bool) {
	for i := range c.perThread {
		w := c.perThread[i].commit.Load()
		if w != 0 && (killer == 0 && (!ok || int32(uint32(w)-inst) > 0) || uint32(w) == uint32(killer)) {
			p, inst, ok = tts.PairFromKey(uint32(w>>32)), uint32(w), true
		}
	}
	return p, inst, ok
}

// sameClass is OnAbort's class check; a variable for the mutation test.
var sameClass = func(a, b *snapshot) bool { return a.verdicts == b.verdicts }

// OnAbort implements trace.Tracer: an abort by a current commit extends
// that commit's state: cur if cur is the killer's extension or commit-only
// snapshot, else the killer's commit-only snapshot if it has cur's class.
// Aborts serialize on mu; commits do not, so the extension is installed by
// CAS and loses to any class change. With two threads and causal events
// this is the exact-state rule; two benign same-class windows stay open (a
// third thread's commit, or the killer pair's next, precedes the extension).
func (c *Controller) OnAbort(p tts.Pair, killer uint64) {
	if killer == 0 || c.tables.Load().idle {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tb, snap := c.tables.Load(), c.cur.Load()
	if snap == nil {
		return
	}
	base := snap
	if snap.anchor != killer {
		kp, _, ok := c.committer(killer)
		if !ok {
			return
		}
		if snap.anchor != 0 || snap.state.Commit != kp || len(snap.state.Aborts) > 0 {
			if base = c.snapshotForCommitLocked(tb, kp); !sameClass(base, snap) {
				return
			}
		}
	}
	// Abort-extended states are rare (one per attributed abort) and
	// unbounded in shape, so they are built fresh rather than cached.
	st := tts.State{
		Commit: base.state.Commit,
		Aborts: append(append([]tts.Pair(nil), base.state.Aborts...), p),
	}
	st.Canonicalize()
	c.cur.CompareAndSwap(snap, c.newSnapshot(tb, st, killer))
}

// Admit implements the gate (paper Figure 2). It returns when pair p
// may start: immediately unless the current state's verdict is to hold
// it (see verdict; never at LevelPassthrough), otherwise after holding
// through up to k re-checks. Every outcome feeds the health monitor.
func (c *Controller) Admit(p tts.Pair) {
	tc := c.stripe(p.Thread)
	pk, lvl := p.Key(), c.Level()
	if lvl == LevelPassthrough {
		tc.passthrough.Add(1)
		c.note(tc.immediate.Add(1), false, false)
		return
	}

	snap, v := c.look(pk, lvl)
	if v != vHold {
		switch v {
		case vUnknown:
			tc.unknown.Add(1)
		case vFutile:
			tc.futile.Add(1)
		}
		if lvl == LevelRelaxed {
			tc.relaxed.Add(1)
		}
		c.note(tc.immediate.Add(1), v == vUnknown, false)
		return
	}

	t0 := time.Now()
	stale, total := 0, 0
	// held finalizes a hold: counters, per-thread starvation evidence,
	// the livelock high-water mark, and the health window.
	held := func(escaped, unknown bool) {
		if unknown {
			tc.unknown.Add(1)
		}
		if escaped {
			tc.escapes.Add(1)
		}
		tc.holdNanos.Add(uint64(time.Since(t0)))
		for {
			cur := c.maxHoldRechecks.Load()
			if uint64(total) <= cur || c.maxHoldRechecks.CompareAndSwap(cur, uint64(total)) {
				break
			}
		}
		c.note(tc.holds.Add(1), unknown, escaped)
	}
	for ; stale < c.k && total < maxHoldFactor*c.k; total++ {
		// Yield so committers make progress, then re-check against the
		// (possibly changed) current state. A scheduler yield, not a
		// sleep: the hold must cost on the order of a transaction, not
		// of a timer tick, or holding dwarfs the variance it removes.
		// Once the yields stop producing state changes the system is
		// quiet (e.g. everyone is at a barrier) and the stale counter
		// runs up to k, releasing us — the paper's progress escape.
		if c.yield != nil {
			c.yield()
		} else {
			runtime.Gosched()
		}
		c.inject.Sleep(fault.HoldStall)
		// The verdict is a function of the state and the ladder level (a
		// degradation widens or removes the set): re-read when one moved.
		next, nextLvl := c.cur.Load(), c.Level()
		if next == snap && nextLvl == lvl {
			stale++
			continue
		}
		snap, lvl = next, nextLvl
		if lvl == LevelPassthrough {
			tc.passthrough.Add(1)
			held(false, false)
			return
		}
		if v = snap.verdict(pk, lvl); v != vHold {
			if lvl == LevelRelaxed {
				tc.relaxed.Add(1)
			}
			held(false, v == vUnknown)
			return
		}
	}
	held(true, false)
}

// AdmitIrrevocable implements the runtimes' IrrevocableGate: an
// escalated (irrevocable serial) transaction is admitted immediately,
// whatever the model says. Holding it would be a deadlock — it owns the
// irrevocability token every committer quiesces on — and the hold
// loop's fault.HoldStall injection site must not be reachable either,
// so this path deliberately shares no code with Admit. The outcome
// still feeds the counters (as an immediate admit, preserving
// Admits == ImmediateAdmits + Holds) and the health
// window: a burst of escalations is exactly the distress the ladder
// should see.
func (c *Controller) AdmitIrrevocable(p tts.Pair) {
	tc := c.stripe(p.Thread)
	tc.irrevocable.Add(1)
	c.note(tc.immediate.Add(1), false, false)
}

// NoteShed records that the overload limiter rejected pair p before it
// reached the gate. The shed never called Admit, so the
// Admits == ImmediateAdmits + Holds partition is
// untouched — Sheds is its own ledger. Nothing feeds the health
// monitor either: shedding is upstream load policy, not evidence about
// the model's fit.
func (c *Controller) NoteShed(p tts.Pair) {
	c.stripe(p.Thread).sheds.Add(1)
}

// WouldAdmit reports whether pair p would pass the gate right now,
// without holding, counting, or feeding the health monitor — a
// non-blocking probe for simulators and diagnostics. unknown is true
// when the answer comes from the current state having no guidance.
func (c *Controller) WouldAdmit(p tts.Pair) (ok, unknown bool) {
	lvl := c.Level()
	if lvl == LevelPassthrough {
		return true, false
	}
	_, v := c.look(p.Key(), lvl)
	return v != vHold, v == vUnknown
}

// look returns the current state and pair pk's verdict under it. Idle
// tables track no state and admit everyone.
func (c *Controller) look(pk uint32, lvl Level) (*snapshot, verdict) {
	if c.tables.Load().idle {
		return nil, vAdmit
	}
	snap := c.cur.Load()
	return snap, snap.verdict(pk, lvl)
}

// verdict reads pair pairKey's verdict off snapshot s at the given
// degradation level; a nil snapshot is an unknown state.
func (s *snapshot) verdict(pairKey uint32, lvl Level) verdict {
	if s == nil || s.verdicts == nil {
		return vUnknown
	}
	set := s.hold
	if lvl == LevelRelaxed {
		set = s.relaxed
	}
	if set == nil {
		return vUnknown
	}
	return set[pairKey]
}
